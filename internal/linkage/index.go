package linkage

import (
	"sort"

	"repro/internal/rdf"
	"repro/internal/similarity"
)

// indexedValue is one literal value of an item under a comparator
// property: the lexical form plus a pointer into the engine's shared
// value cache, where everything the hot comparison loop needs (rune
// length, token list, token set, prepared pattern) is derived once per
// distinct value string and shared across comparators and sides.
type indexedValue struct {
	value string
	entry *cacheEntry
}

// compiledComparator is one configured comparator with its measure
// capabilities resolved and both sides' values materialized, so scoring a
// pair is pure in-memory slice work — no graph access, no re-tokenizing.
// The property terms are retained so ApplyPatches can re-read a single
// item's values from a live graph.
type compiledComparator struct {
	weight  float64
	measure similarity.Measure
	// slot is this comparator's index in the engine's comparator list,
	// addressing its prepared patterns in the shared value cache.
	slot int
	// extProp and locProp are the configured property terms, kept for
	// incremental re-indexing.
	extProp rdf.Term
	locProp rdf.Term
	// bounded is non-nil when the measure can bound its score from value
	// lengths alone; the engine then skips value pairs whose bound cannot
	// beat the current best.
	bounded similarity.LengthBounded
	// tokens is non-nil when the measure scores pre-tokenized values; the
	// engine then tokenizes each value once at build time.
	tokens similarity.Tokenized
	// tokenSets is non-nil when the measure scores prebuilt token sets;
	// preferred over tokens in the hot loop.
	tokenSets similarity.TokenSetScored
	// prepared is non-nil when the measure can precompile one side of a
	// comparison (Myers pattern bitmaps, TF-IDF vectors); the engine then
	// prepares each distinct value once and the hot loop scores prepared
	// against prepared — the fastest path of all.
	prepared similarity.PreparedMeasure
	ext      map[rdf.Term][]indexedValue
	loc      map[rdf.Term][]indexedValue
}

// sideIndex returns the comparator's value map and property for one side.
func (cc *compiledComparator) sideIndex(side Side) (map[rdf.Term][]indexedValue, rdf.Term) {
	if side == ExternalSide {
		return cc.ext, cc.extProp
	}
	return cc.loc, cc.locProp
}

// compileComparators resolves every comparator's measure capabilities,
// builds the shared value cache from their union, and materializes the
// per-comparator value indexes through it.
func compileComparators(cfg Config, se, sl *rdf.Graph) ([]compiledComparator, *valueCache) {
	comps := make([]compiledComparator, len(cfg.Comparators))
	for i, cmp := range cfg.Comparators {
		cc := compiledComparator{
			weight:  cmp.Weight,
			measure: cmp.Measure,
			slot:    i,
			extProp: cmp.ExternalProperty,
			locProp: cmp.LocalProperty,
		}
		cc.bounded, _ = cmp.Measure.(similarity.LengthBounded)
		cc.tokens, _ = cmp.Measure.(similarity.Tokenized)
		if cc.tokens != nil {
			// Token sets are derived from the token lists, so a measure
			// must be Tokenized for the set path to have data.
			cc.tokenSets, _ = cmp.Measure.(similarity.TokenSetScored)
		}
		cc.prepared, _ = cmp.Measure.(similarity.PreparedMeasure)
		comps[i] = cc
	}
	cache := newValueCache(comps)
	for i := range comps {
		comps[i].ext = buildValueIndex(se, comps[i].extProp, cache, i)
		comps[i].loc = buildValueIndex(sl, comps[i].locProp, cache, i)
	}
	return comps, cache
}

// buildValueIndex collects every item's literal values under prop in one
// pass over the graph's predicate index. Values are ordered by
// rdf.Term.Compare, matching what Graph.Objects used to return, so the
// indexed engine is observationally identical to the graph-walking one.
func buildValueIndex(g *rdf.Graph, prop rdf.Term, cache *valueCache, slot int) map[rdf.Term][]indexedValue {
	byItem := map[rdf.Term][]rdf.Term{}
	if g != nil {
		g.Match(rdf.Term{}, prop, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				byItem[t.S] = append(byItem[t.S], t.O)
			}
			return true
		})
	}
	out := make(map[rdf.Term][]indexedValue, len(byItem))
	for item, objs := range byItem {
		out[item] = compileValues(objs, cache, slot)
	}
	return out
}

// itemValues re-reads one item's literal values under prop, producing the
// same indexed representation buildValueIndex would — the unit of work of
// an incremental upsert patch.
func itemValues(g *rdf.Graph, item, prop rdf.Term, cache *valueCache, slot int) []indexedValue {
	var objs []rdf.Term
	if g != nil {
		g.Match(item, prop, rdf.Term{}, func(t rdf.Triple) bool {
			if t.O.IsLiteral() {
				objs = append(objs, t.O)
			}
			return true
		})
	}
	if len(objs) == 0 {
		return nil
	}
	return compileValues(objs, cache, slot)
}

// compileValues sorts the raw value terms and resolves each against the
// shared cache, taking one reference per indexed value.
func compileValues(objs []rdf.Term, cache *valueCache, slot int) []indexedValue {
	sort.Slice(objs, func(i, j int) bool { return objs[i].Compare(objs[j]) < 0 })
	vals := make([]indexedValue, len(objs))
	for i, o := range objs {
		vals[i] = indexedValue{value: o.Value, entry: cache.acquire(o.Value, slot)}
	}
	return vals
}
