// Package linkage implements the downstream linking step that runs inside
// the reduced linking space: pairwise comparison of external and local
// item descriptions with configurable per-property similarity measures,
// match decisions, and evaluation against ground-truth links.
//
// The paper deliberately leaves the linking method open — its
// contribution is the reduction of the space the method runs on — so this
// engine is a standard weighted-average record matcher over the
// similarity toolbox of internal/similarity.
//
// # Architecture: value index and worker model
//
// Pair comparison is the dominant cost of linking, so the engine is built
// around two ideas:
//
//   - Value index. New snapshots each comparator's property values out of
//     the RDF graphs into flat per-item slices (internal/linkage/index.go).
//     Per-value derivations — rune lengths, token lists and token sets for
//     token-based measures, precompiled patterns for PreparedMeasures
//     (Myers bitmaps for the edit distances, TF-IDF weight vectors) — live
//     in a shared per-engine cache (internal/linkage/cache.go) keyed by the
//     distinct value string, so a value appearing under several comparators
//     or on both sides is derived once. Score therefore never touches
//     rdf.Graph: a pair costs two map lookups plus the measure calls,
//     length-bounded measures (the edit distances and the Jaro family) skip
//     value pairs whose length difference already rules out beating the
//     current best, and prepared measures score precompiled pattern against
//     precompiled pattern. The index is a snapshot: graph mutations after
//     New are not observed, and the incremental paths keep the cache
//     reference-counted so it stays exactly as large as the live index.
//
//   - Parallel scoring. ScorePairs and LinkBest fan work out across
//     Config.Workers goroutines (default: all cores) using the chunked
//     work-stealing scaffold of internal/par — an atomic cursor hands
//     fixed-size chunks to idle workers, each worker writes its chunk's
//     matches into a dedicated result slot, and the chunks are
//     concatenated in order and sorted under the same total order as the
//     serial path. Output is byte-identical to Workers=1 on the same
//     input.
//
// # Live engines
//
// The value index is mutable after construction: ApplyPatches
// (internal/linkage/incremental.go) re-indexes or drops items in place,
// guarded by an RWMutex so concurrent Score/ScorePairs/LinkBest/TopK
// readers always observe a consistent snapshot — each read operation
// holds the read lock end-to-end, and writers are excluded for its
// duration. The index records the rdf.Graph.Version counters it
// reflects, letting callers that cache engines (Pipeline) detect
// staleness without rebuilding.
package linkage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rdf"
	"repro/internal/similarity"
)

// Comparator compares one external property against one local property
// under a similarity measure.
type Comparator struct {
	ExternalProperty rdf.Term
	LocalProperty    rdf.Term
	Measure          similarity.Measure
	// Weight scales this comparator's contribution; non-positive weights
	// are rejected by Validate.
	Weight float64
}

// Config configures the matching engine.
type Config struct {
	Comparators []Comparator
	// Threshold is the minimum weighted score for a pair to be declared
	// a match, in [0, 1].
	Threshold float64
	// Workers is the number of goroutines ScorePairs and LinkBest fan
	// out across. 0 means runtime.GOMAXPROCS(0); 1 forces the serial
	// path. Output is identical for every worker count.
	Workers int
}

// ErrConfig marks an invalid Config: every Validate failure wraps it, so
// callers (e.g. an HTTP handler) can classify configuration mistakes as
// client errors via errors.Is without string matching.
var ErrConfig = errors.New("linkage: invalid config")

// Validate checks the configuration. All errors wrap ErrConfig.
func (c Config) Validate() error {
	if len(c.Comparators) == 0 {
		return fmt.Errorf("%w: no comparators configured", ErrConfig)
	}
	for i, cmp := range c.Comparators {
		if cmp.Measure == nil {
			return fmt.Errorf("%w: comparator %d has nil measure", ErrConfig, i)
		}
		if cmp.Weight <= 0 {
			return fmt.Errorf("%w: comparator %d has non-positive weight %v", ErrConfig, i, cmp.Weight)
		}
		if cmp.ExternalProperty.IsZero() || cmp.LocalProperty.IsZero() {
			return fmt.Errorf("%w: comparator %d has zero property", ErrConfig, i)
		}
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("%w: threshold %v out of [0,1]", ErrConfig, c.Threshold)
	}
	if c.Workers < 0 {
		return fmt.Errorf("%w: negative worker count %d", ErrConfig, c.Workers)
	}
	return nil
}

// Engine scores and links pairs between two graphs. Construction
// snapshots every comparator property's values into the engine's value
// index; the graphs are consulted again only by ApplyPatches, which
// re-indexes individual items from them. Safe for concurrent use,
// including queries running concurrently with ApplyPatches.
type Engine struct {
	cfg Config
	// st is the mutable value index, shared with every engine derived via
	// WithOptions so incremental updates reach all of them.
	st *engineState
}

// engineState is the shared, mutable half of an engine: the compiled
// value index, the live graph references ApplyPatches re-reads from, and
// the graph versions the index currently reflects. mu serializes writers
// (ApplyPatches) against the read paths, each of which holds the read
// lock for the duration of one query so it sees a consistent snapshot.
type engineState struct {
	mu    sync.RWMutex
	comps []compiledComparator
	// cache is the shared per-value derivation cache the comparator
	// indexes point into; writers keep it reference-counted through the
	// same lock that guards the indexes.
	cache *valueCache
	// totalWeight is the constant score denominator: every comparator
	// keeps its weight whether or not values are present.
	totalWeight float64
	se, sl      *rdf.Graph
	extVer      uint64
	locVer      uint64
}

// New builds an engine over the external and local graphs, materializing
// the value index (see the package comment). Mutations to the graphs
// after New are not observed by the engine until the mutated items are
// passed to ApplyPatches.
func New(cfg Config, se, sl *rdf.Graph) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	comps, cache := compileComparators(cfg, se, sl)
	st := &engineState{
		comps:  comps,
		cache:  cache,
		se:     se,
		sl:     sl,
		extVer: graphVersion(se),
		locVer: graphVersion(sl),
	}
	for _, c := range st.comps {
		st.totalWeight += c.weight
	}
	return &Engine{cfg: cfg, st: st}, nil
}

func graphVersion(g *rdf.Graph) uint64 {
	if g == nil {
		return 0
	}
	return g.Version()
}

// WithOptions returns an engine sharing this engine's value index under
// a different threshold and worker count, skipping the index rebuild.
// The comparators are unchanged, and incremental updates through either
// engine are visible to both.
func (e *Engine) WithOptions(threshold float64, workers int) (*Engine, error) {
	cfg := e.cfg
	cfg.Threshold = threshold
	cfg.Workers = workers
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, st: e.st}, nil
}

// workers resolves Config.Workers: 0 means all cores.
func (e *Engine) workers() int { return par.Workers(e.cfg.Workers) }

// chunkSize is the number of items a worker claims at a time.
const chunkSize = par.DefaultChunk

// Score computes the weighted similarity of one pair in [0, 1]. For a
// multi-valued property the best-scoring value pair counts. Comparators
// whose properties are absent on either side score 0 but keep their
// weight in the denominator, penalizing missing information.
func (e *Engine) Score(ext, loc rdf.Term) float64 {
	e.st.mu.RLock()
	defer e.st.mu.RUnlock()
	return e.st.score(ext, loc)
}

// score is the hot path; callers must hold st.mu (read or write).
func (st *engineState) score(ext, loc rdf.Term) float64 {
	if st.totalWeight == 0 {
		return 0
	}
	num := 0.0
	for i := range st.comps {
		c := &st.comps[i]
		evs, lvs := c.ext[ext], c.loc[loc]
		if len(evs) == 0 || len(lvs) == 0 {
			continue
		}
		best := 0.0
		for vi := range evs {
			ev := evs[vi].entry
			for vj := range lvs {
				lv := lvs[vj].entry
				// A value pair whose length bound cannot beat the current
				// best is settled without running the measure.
				if c.bounded != nil && c.bounded.SimilarityUpperBound(ev.runeLen, lv.runeLen) <= best {
					continue
				}
				var s float64
				switch {
				case c.prepared != nil:
					// Every value indexed under this comparator was acquired
					// with its slot, so both sides' patterns exist.
					s = ev.prepared[c.slot].SimilarityPrepared(lv.prepared[c.slot])
				case c.tokenSets != nil:
					s = c.tokenSets.SimilarityTokenSets(ev.tokenSet, lv.tokenSet)
				case c.tokens != nil:
					s = c.tokens.SimilarityTokens(ev.tokens, lv.tokens)
				default:
					s = c.measure.Similarity(evs[vi].value, lvs[vj].value)
				}
				if s > best {
					best = s
				}
			}
		}
		num += c.weight * best
	}
	return num / st.totalWeight
}

// Match is a declared same-as link with its score.
type Match struct {
	External rdf.Term
	Local    rdf.Term
	Score    float64
}

// ScorePairs scores candidate pairs and returns those at or above the
// threshold, sorted by descending score (ties broken deterministically).
// The work is spread across Config.Workers goroutines; output is
// identical for every worker count.
func (e *Engine) ScorePairs(pairs [][2]rdf.Term) []Match {
	st := e.st
	st.mu.RLock()
	defer st.mu.RUnlock()
	out, _ := par.MapChunks(context.Background(), e.workers(), chunkSize, pairs, func(p [2]rdf.Term) (Match, bool) {
		s := st.score(p[0], p[1])
		return Match{External: p[0], Local: p[1], Score: s}, s >= e.cfg.Threshold
	})
	SortMatches(out)
	return out
}

// LinkBest performs one-to-one greedy linking: every external item is
// linked to its best-scoring candidate at or above the threshold. The
// candidates map gives each external item's reduced linking space. The
// per-item searches are spread across Config.Workers goroutines; output
// is identical for every worker count.
func (e *Engine) LinkBest(candidates map[rdf.Term][]rdf.Term) []Match {
	exts := make([]rdf.Term, 0, len(candidates))
	for ext := range candidates {
		exts = append(exts, ext)
	}
	st := e.st
	st.mu.RLock()
	defer st.mu.RUnlock()
	out, _ := par.MapChunks(context.Background(), e.workers(), chunkSize, exts, func(ext rdf.Term) (Match, bool) {
		return st.bestFor(ext, candidates[ext], e.cfg.Threshold)
	})
	SortMatches(out)
	return out
}

// bestFor returns ext's best-scoring candidate among locs and whether it
// clears the threshold; callers must hold st.mu.
func (st *engineState) bestFor(ext rdf.Term, locs []rdf.Term, threshold float64) (Match, bool) {
	best := Match{Score: -1}
	for _, loc := range locs {
		s := st.score(ext, loc)
		if s > best.Score || (s == best.Score && loc.Compare(best.Local) < 0) {
			best = Match{External: ext, Local: loc, Score: s}
		}
	}
	return best, best.Score >= threshold
}

// TopK scores ext against every candidate in locs and returns up to k
// matches at or above the threshold, best first under the same total
// order ScorePairs sorts by. k <= 0 means no limit.
func (e *Engine) TopK(ext rdf.Term, locs []rdf.Term, k int) []Match {
	st := e.st
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []Match
	for _, loc := range locs {
		if s := st.score(ext, loc); s >= e.cfg.Threshold {
			out = append(out, Match{External: ext, Local: loc, Score: s})
		}
	}
	SortMatches(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// SortMatches sorts matches into the engine's match order: descending
// score, ties broken by external then local term.
func SortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Score != ms[j].Score {
			return ms[i].Score > ms[j].Score
		}
		if c := ms[i].External.Compare(ms[j].External); c != 0 {
			return c < 0
		}
		return ms[i].Local.Compare(ms[j].Local) < 0
	})
}

// Result is a confusion summary of declared links against ground truth.
type Result struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision is TP / (TP + FP).
func (r Result) Precision() float64 {
	if r.TruePositives+r.FalsePositives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalsePositives)
}

// Recall is TP / (TP + FN).
func (r Result) Recall() float64 {
	if r.TruePositives+r.FalseNegatives == 0 {
		return 0
	}
	return float64(r.TruePositives) / float64(r.TruePositives+r.FalseNegatives)
}

// F1 is the harmonic mean of precision and recall.
func (r Result) F1() float64 {
	p, rec := r.Precision(), r.Recall()
	if p+rec == 0 {
		return 0
	}
	return 2 * p * rec / (p + rec)
}

// Evaluate scores declared matches against the truth links.
func Evaluate(found []Match, truth []core.Link) Result {
	truthSet := make(map[core.Link]struct{}, len(truth))
	for _, l := range truth {
		truthSet[l] = struct{}{}
	}
	var res Result
	seen := map[core.Link]struct{}{}
	for _, m := range found {
		l := core.Link{External: m.External, Local: m.Local}
		if _, dup := seen[l]; dup {
			continue
		}
		seen[l] = struct{}{}
		if _, ok := truthSet[l]; ok {
			res.TruePositives++
		} else {
			res.FalsePositives++
		}
	}
	res.FalseNegatives = len(truth) - res.TruePositives
	return res
}
