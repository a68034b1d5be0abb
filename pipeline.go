package datalink

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/linkage"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/similarity"
)

// Measure scores string similarity in [0, 1].
type Measure = similarity.Measure

// Comparator compares one external property against one local property
// under a similarity measure, with a weight.
type Comparator = linkage.Comparator

// LinkerConfig configures the in-space matcher.
type LinkerConfig = linkage.Config

// Match is a declared same-as link with its score.
type Match = linkage.Match

// Side selects the external or local source of an item, for incremental
// index maintenance.
type Side = linkage.Side

// Side values.
const (
	// ExternalSide addresses items of the external graph (SE).
	ExternalSide = linkage.ExternalSide
	// LocalSide addresses items of the local catalog graph (SL).
	LocalSide = linkage.LocalSide
)

// LinkResult is the confusion summary of declared links vs ground truth.
type LinkResult = linkage.Result

// Similarity measure constructors commonly used by linkers.
var (
	// Levenshtein is normalized edit-distance similarity.
	Levenshtein Measure = similarity.Levenshtein{}
	// JaroWinkler is prefix-boosted Jaro similarity.
	JaroWinkler Measure = similarity.JaroWinkler{}
	// Jaccard is token-set Jaccard similarity.
	Jaccard Measure = similarity.Jaccard{}
	// MongeElkan is the token-level hybrid with Jaro-Winkler inside.
	MongeElkan Measure = similarity.MongeElkan{}
)

// EvaluateLinks scores declared matches against truth links.
func EvaluateLinks(found []Match, truth []Link) LinkResult {
	return linkage.Evaluate(found, truth)
}

// ErrLinkerConfig marks an invalid LinkerConfig; every config validation
// failure from the linking engine wraps it, letting callers classify
// configuration mistakes (a client error) apart from internal failures.
var ErrLinkerConfig = linkage.ErrConfig

// Pipeline wires the full flow of the paper: learn rules from TS, then
// for each new external item predict classes, build the reduced linking
// space, and (optionally) run a matcher inside it.
//
// Concurrency: the Pipeline's own methods read the live graphs and
// instance index, so they must be serialized by the caller against graph
// mutations and ApplyPatches. For lock-free queries under a live write
// path, take a Snapshot: the returned QueryView reads frozen
// copy-on-write state and may run concurrently with any later mutation —
// internal/service publishes one per mutation via an atomic pointer.
type Pipeline struct {
	Model      *Model
	Classifier *Classifier
	Instances  *InstanceIndex

	se *Graph
	sl *Graph

	// linker caches the value-indexed engine of the last config that
	// needed a build, so repeated links reuse its index. The engine
	// tracks the graph versions its index reflects, and ApplyPatches
	// keeps it current item by item, so a live graph never forces a
	// rebuild.
	linkerMu  sync.Mutex
	linker    *linkage.Engine
	linkerCfg LinkerConfig
}

// NewPipeline learns a model and prepares the classifier and instance
// index.
func NewPipeline(cfg LearnerConfig, ts TrainingSet, se, sl *Graph, ol *Ontology) (*Pipeline, error) {
	m, err := Learn(cfg, ts, se, sl, ol)
	if err != nil {
		return nil, err
	}
	return NewPipelineWithModel(m, se, sl, ol), nil
}

// NewPipelineWithModel builds a pipeline around an already-learned
// model over the given live graphs. This is how durable recovery keeps
// model and corpus independent: the model is recomputed from the exact
// learn-time state a snapshot preserved, while the pipeline serves the
// (possibly later-mutated) current graphs — matching a live service
// whose items changed after its last learn. The instance sets of the
// rule classes are computed here, so snapshots answer them from the
// memo.
func NewPipelineWithModel(m *Model, se, sl *Graph, ol *Ontology) *Pipeline {
	p := &Pipeline{
		Model:      m,
		Classifier: NewClassifier(&m.Rules, m.Config.Splitter),
		Instances:  NewInstanceIndex(sl, ol),
		se:         se,
		sl:         sl,
	}
	p.warmInstances()
	return p
}

// External returns the pipeline's live external graph. Mutate it only
// under the same serialization as ApplyPatches, and tell the pipeline
// via ApplyPatches afterwards.
func (p *Pipeline) External() *Graph { return p.se }

// Local returns the pipeline's live local catalog graph, under the same
// contract as External.
func (p *Pipeline) Local() *Graph { return p.sl }

// Classify predicts the classes of an external item described in the
// pipeline's external graph.
func (p *Pipeline) Classify(item Term) []Prediction {
	return p.Classifier.Classify(item, p.se)
}

// ReducedSpace computes the item's linking subspaces from its
// predictions.
func (p *Pipeline) ReducedSpace(item Term) SpaceReport {
	return Space(item, p.Classify(item), p.Instances)
}

// LinkWithin runs the matcher over each item's reduced space and returns
// the best match per item at or above the configured threshold, sorted
// like Engine.LinkBest's output (score descending, then external and
// local term). It is LinkTopK with k = 1, flattened.
func (p *Pipeline) LinkWithin(items []Term, cfg LinkerConfig) ([]Match, error) {
	byItem, err := p.LinkTopK(context.Background(), items, cfg, 1)
	if err != nil {
		return nil, err
	}
	var out []Match
	for _, ms := range byItem {
		out = append(out, ms...)
	}
	linkage.SortMatches(out)
	return out, nil
}

// LinkTopK makes the cached engine current for cfg (EnsureLinker) and
// runs QueryView.LinkTopK on a snapshot of the pipeline's current state.
func (p *Pipeline) LinkTopK(ctx context.Context, items []Term, cfg LinkerConfig, k int) (map[Term][]Match, error) {
	if err := p.EnsureLinker(cfg); err != nil {
		return nil, fmt.Errorf("datalink: building linker: %w", err)
	}
	return p.Snapshot().LinkTopK(ctx, items, cfg, k)
}

// Patch is one batched index mutation: re-index (or with Remove, drop)
// Items on Side. See ApplyPatches.
type Patch = linkage.IndexPatch

// ApplyPatches tells the pipeline about graph mutations the caller has
// made. The ordered mixed upsert/remove batch lands in the cached engine
// under one lock acquisition, every local-side entry patches the
// instance index, and the memo of the rule classes is then recomputed
// where a patch invalidated it. One call must list every item whose
// triples changed since the last call: the engine marks itself current
// with the graphs' version counters, so an item mutated but not listed
// would stay stale without forcing a rebuild.
func (p *Pipeline) ApplyPatches(patches []Patch) {
	p.linkerMu.Lock()
	if p.linker != nil {
		p.linker.ApplyPatches(patches)
	}
	p.linkerMu.Unlock()
	local := false
	for _, pt := range patches {
		if pt.Side != LocalSide {
			continue
		}
		local = true
		for _, item := range pt.Items {
			if pt.Remove {
				p.Instances.RemoveInstance(item)
			} else {
				p.Instances.UpsertInstance(item, p.sl.Objects(item, RDFType))
			}
		}
	}
	if local {
		p.warmInstances()
	}
}

// warmInstances computes the instance set of every rule class into the
// live index's memo, which snapshots share: a frozen index answers a
// memo miss by recomputing the union on every query. After a local-side
// patch only the entries it invalidated are recomputed.
func (p *Pipeline) warmInstances() {
	classes := make([]Term, 0, p.Model.Rules.Len())
	for _, r := range p.Model.Rules.Rules {
		classes = append(classes, r.Class)
	}
	p.Instances.Freeze(classes)
}

// EnsureLinker makes the cached engine serve cfg's comparators over the
// live graphs: it keeps the cached engine when that one still covers
// them, else compiles a new one. Writers that publish QueryViews call it
// on the write path, so the views' queries resolve the engine without a
// build. Must be serialized with mutations like ApplyPatches.
func (p *Pipeline) EnsureLinker(cfg LinkerConfig) error {
	if eng, err := p.reusableEngine(cfg, p.se, p.sl); eng != nil || err != nil {
		return err
	}
	eng, err := linkage.New(cfg, p.se, p.sl)
	if err != nil {
		return err
	}
	// The comparator slice is copied, so a caller mutating its own slice
	// in place cannot alias the cache's change detection.
	cfg.Comparators = append([]Comparator(nil), cfg.Comparators...)
	p.linkerMu.Lock()
	p.linker, p.linkerCfg = eng, cfg
	p.linkerMu.Unlock()
	return nil
}

// reusableEngine returns the cached engine under cfg's threshold and
// worker count (WithOptions shares its index) when cfg's comparators
// equal the cache's and the index reflects at least the versions of se
// and sl — the live graphs or a snapshot of them, one test for both.
// Otherwise it returns nil; an invalid threshold or worker count is an
// error wrapping ErrLinkerConfig. Comparators are compared with
// reflect.DeepEqual, which is always false for measures carrying
// function values (similarity.Func closures): such configs work but
// compile an engine on every call.
func (p *Pipeline) reusableEngine(cfg LinkerConfig, se, sl *Graph) (*linkage.Engine, error) {
	p.linkerMu.Lock()
	eng, cached := p.linker, p.linkerCfg.Comparators
	p.linkerMu.Unlock()
	if eng == nil || !reflect.DeepEqual(cfg.Comparators, cached) {
		return nil, nil
	}
	if ext, loc := eng.Versions(); ext < se.Version() || loc < sl.Version() {
		return nil, nil
	}
	return eng.WithOptions(cfg.Threshold, cfg.Workers)
}

// QueryView is an immutable point-in-time view of a pipeline for
// lock-free queries: classification and candidate expansion read frozen
// copy-on-write snapshots of the graphs and the instance index, so those
// reads never tear while the live pipeline keeps mutating. Scoring
// prefers the pipeline's cached engine (internally synchronized and kept
// current by ApplyPatches): a mutation landing mid-query may be
// reflected in scores computed after it, but each pair's score is atomic
// under the engine's lock and never mixes an item's old and new values.
// When the requested comparators don't match the cached engine — or the
// cache lags the snapshot — the view builds a request-scoped engine from
// its own frozen graphs instead, trading one index build for fully
// snapshot-pinned scoring.
type QueryView struct {
	p  *Pipeline
	se *Graph
	sl *Graph
	ix *InstanceIndex
}

// Snapshot captures a QueryView of the pipeline's current state in O(1)
// (graph and instance-index snapshots are copy-on-write). Like every
// mutator it must be called serialized with mutations; the returned view
// itself is safe for unsynchronized concurrent use from then on.
func (p *Pipeline) Snapshot() *QueryView {
	return &QueryView{
		p:  p,
		se: p.se.Snapshot(),
		sl: p.sl.Snapshot(),
		ix: p.Instances.Snapshot(),
	}
}

// Model returns the learned model backing this view (immutable).
func (v *QueryView) Model() *Model { return v.p.Model }

// External returns the view's frozen external graph snapshot.
func (v *QueryView) External() *Graph { return v.se }

// Local returns the view's frozen local graph snapshot.
func (v *QueryView) Local() *Graph { return v.sl }

// Instances returns the view's frozen instance index.
func (v *QueryView) Instances() *InstanceIndex { return v.ix }

// Classify predicts the classes of an external item as described at
// snapshot time.
func (v *QueryView) Classify(item Term) []Prediction {
	return v.p.Classifier.Classify(item, v.se)
}

// ReducedSpace computes the item's linking subspaces from its
// predictions, over the frozen instance index.
func (v *QueryView) ReducedSpace(item Term) SpaceReport {
	return core.Space(item, v.Classify(item), v.ix)
}

// LinkTopK returns, for every item, its k best-scoring candidates at or
// above cfg.Threshold inside the item's reduced linking space (k <= 0
// means all), each slice in the engine's match order. It is the one
// link path: resolve the engine, classify and expand every item against
// the snapshots, then score. Classification and expansion run serially;
// scoring fans out across cfg.Workers goroutines over chunks of
// par.DefaultChunk items, so a query of that many items or fewer scores
// on one goroutine. No lock beyond the engine's internal read lock is
// held while scoring runs. When the context carries an obs.Trace, the
// engine, classify, expand and scoring stages are timed into it; without
// one the clock is never read.
func (v *QueryView) LinkTopK(ctx context.Context, items []Term, cfg LinkerConfig, k int) (map[Term][]Match, error) {
	sp := obs.StartSpan(ctx, "engine")
	eng, err := v.p.reusableEngine(cfg, v.se, v.sl)
	if eng == nil && err == nil {
		eng, err = linkage.New(cfg, v.se, v.sl)
	}
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("datalink: building linker: %w", err)
	}
	cands, err := v.expand(ctx, items)
	if err != nil {
		return nil, err
	}
	sp = obs.StartSpan(ctx, "scoring")
	defer sp.End()
	return topKOver(ctx, eng, cfg.Workers, cands, k)
}

// itemCands pairs an external item with its expanded local candidates.
type itemCands struct {
	item Term
	locs []Term
}

// expand classifies every item against the view's external snapshot and
// expands its reduced space over the frozen instance index into local
// candidates, on the calling goroutine. With a trace in ctx, the summed
// per-item classify and expand times land in it as two stages.
func (v *QueryView) expand(ctx context.Context, items []Term) ([]itemCands, error) {
	tr := obs.TraceFrom(ctx)
	var classify, expand time.Duration
	var t0, t1 time.Time
	cands := make([]itemCands, 0, len(items))
	for _, item := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tr != nil {
			t0 = time.Now()
		}
		preds := v.p.Classifier.Classify(item, v.se)
		if tr != nil {
			t1 = time.Now()
			classify += t1.Sub(t0)
		}
		pairs := core.CandidatePairs(core.Space(item, preds, v.ix), v.ix)
		locs := make([]Term, len(pairs))
		for i, pr := range pairs {
			locs[i] = pr[1]
		}
		if tr != nil {
			expand += time.Since(t1)
		}
		cands = append(cands, itemCands{item: item, locs: locs})
	}
	tr.Observe("classify", classify)
	tr.Observe("expand", expand)
	return cands, nil
}

// topKOver fans the per-item top-k searches out across workers.
func topKOver(ctx context.Context, eng *linkage.Engine, workers int, cands []itemCands, k int) (map[Term][]Match, error) {
	type itemMatches struct {
		item Term
		ms   []Match
	}
	scored, err := par.MapChunks(ctx, par.Workers(workers), 0, cands, func(c itemCands) (itemMatches, bool) {
		return itemMatches{item: c.item, ms: eng.TopK(c.item, c.locs, k)}, true
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Term][]Match, len(scored))
	for _, im := range scored {
		out[im.item] = im.ms
	}
	return out, nil
}

// Generalize applies the subsumption extension to the pipeline's model
// and returns a new rule set (the pipeline itself is unchanged).
func (p *Pipeline) Generalize(ol *Ontology, opts GeneralizeOptions) RuleSet {
	return p.Model.Generalize(ol, opts)
}
