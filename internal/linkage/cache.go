package linkage

import (
	"unicode/utf8"

	"repro/internal/similarity"
)

// valueCache is the engine's shared per-value derivation cache: one
// Tokenize, one token set and one prepared pattern per distinct value
// string, shared across every comparator column and both sides of the
// engine. Before it existed each comparator column re-derived its own
// tokens and token sets in buildValueIndex, so a value appearing under
// three comparators (or on both sides) paid for its derivations three
// times; now the first reference pays and the rest share.
//
// Entries are reference-counted by the indexedValues that point at
// them, so ApplyPatches keeps the cache exactly as large as the live
// index: a value's entry is dropped when its last referencing item leaves the index. All access
// happens under the engine's state lock — construction and writers hold
// it exclusively, and the read paths never mutate the cache (prepared
// patterns are built eagerly at acquire time, not lazily under read
// locks).
type valueCache struct {
	// tokenize and sets record whether any comparator's measure consumes
	// token lists / token sets; derivations are built once per value for
	// the union of needs rather than per column.
	tokenize bool
	sets     bool
	// prep holds, per comparator slot, the measure to precompile values
	// with (nil for slots whose measure is not a PreparedMeasure).
	// Prepared patterns are per-slot because a measure's preparation may
	// depend on instance state (a fitted TF-IDF), so two comparators
	// never share one pattern even when their measures look alike.
	prep    []similarity.PreparedMeasure
	entries map[string]*cacheEntry
}

// cacheEntry is everything derived from one distinct value string.
type cacheEntry struct {
	refs     int
	runeLen  int
	tokens   []string
	tokenSet map[string]struct{}
	// prepared is indexed by comparator slot; allocated on first use and
	// filled per slot as values are acquired for that comparator.
	prepared []similarity.Prepared
}

// newValueCache derives the union of derivation needs from the compiled
// comparators.
func newValueCache(comps []compiledComparator) *valueCache {
	vc := &valueCache{
		prep:    make([]similarity.PreparedMeasure, len(comps)),
		entries: map[string]*cacheEntry{},
	}
	for i := range comps {
		if comps[i].tokens != nil {
			vc.tokenize = true
		}
		if comps[i].tokenSets != nil {
			vc.sets = true
		}
		vc.prep[i] = comps[i].prepared
	}
	return vc
}

// acquire returns the entry for value, creating it (and any derivations
// the cache's comparators need) on first reference, and takes one
// reference. slot identifies the comparator column the value is being
// indexed under, so measure-specific preparation lands in that slot.
func (vc *valueCache) acquire(value string, slot int) *cacheEntry {
	e := vc.entries[value]
	if e == nil {
		e = &cacheEntry{runeLen: utf8.RuneCountInString(value)}
		if vc.tokenize {
			e.tokens = similarity.Tokenize(value)
			if vc.sets {
				e.tokenSet = make(map[string]struct{}, len(e.tokens))
				for _, tok := range e.tokens {
					e.tokenSet[tok] = struct{}{}
				}
			}
		}
		vc.entries[value] = e
	}
	if pm := vc.prep[slot]; pm != nil {
		if e.prepared == nil {
			e.prepared = make([]similarity.Prepared, len(vc.prep))
		}
		if e.prepared[slot] == nil {
			e.prepared[slot] = pm.Prepare(value)
		}
	}
	e.refs++
	return e
}

// release drops one reference to each value, deleting entries whose
// last reference left. The inverse of the acquires that produced vals.
func (vc *valueCache) release(vals []indexedValue) {
	for i := range vals {
		v := &vals[i]
		if v.entry == nil {
			continue
		}
		v.entry.refs--
		if v.entry.refs <= 0 {
			delete(vc.entries, v.value)
		}
	}
}

// Size returns the number of distinct cached values, for tests and
// diagnostics.
func (vc *valueCache) Size() int { return len(vc.entries) }
