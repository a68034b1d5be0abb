package linkage

import "repro/internal/rdf"

// Side selects which of an engine's two sources an item belongs to.
type Side int

const (
	// ExternalSide addresses items of the external graph (SE).
	ExternalSide Side = iota
	// LocalSide addresses items of the local catalog graph (SL).
	LocalSide
)

// String returns the side name, for diagnostics and wire formats.
func (s Side) String() string {
	if s == ExternalSide {
		return "external"
	}
	return "local"
}

// IndexPatch is one batched value-index mutation: re-index (or with
// Remove, drop) Items on Side. A slice of patches expresses an ordered
// mixed upsert/remove batch for ApplyPatches.
type IndexPatch struct {
	Side   Side
	Remove bool
	Items  []rdf.Term
}

// ApplyPatches applies an ordered sequence of upsert/remove patches to
// the value index in place, under ONE acquisition of the index lock, so
// a live graph never forces a full New rebuild and a 10k-item bulk load
// blocks readers once. An upsert patch (Remove=false) re-reads each
// item's comparator values from the engine's graph on its side: call it
// after adding, changing or deleting an item's triples; an item with no
// remaining values is dropped. A remove patch drops the items without
// consulting the graph, so it also soft-deletes items whose triples are
// still present — until anything rebuilds the engine from the graphs
// (New) and re-indexes them. Each touched side's recorded graph version
// advances to the graph's current Version once at the end, so the
// caller's contract is: mutate the graph, then patch every item touched
// since the last call. Safe to call concurrently with queries — readers
// block for the duration of the update and then observe all of it.
func (e *Engine) ApplyPatches(patches []IndexPatch) {
	st := e.st
	st.mu.Lock()
	defer st.mu.Unlock()
	var touched [2]bool
	for _, p := range patches {
		g := st.graph(p.Side)
		for ci := range st.comps {
			c := &st.comps[ci]
			m, prop := c.sideIndex(p.Side)
			for _, item := range p.Items {
				if p.Remove {
					st.cache.release(m[item])
					delete(m, item)
					continue
				}
				// Acquire the new values before releasing the old ones, so a
				// value present in both keeps its cache entry warm instead
				// of being dropped and rebuilt.
				vals := itemValues(g, item, prop, st.cache, c.slot)
				old := m[item]
				if len(vals) == 0 {
					delete(m, item)
				} else {
					m[item] = vals
				}
				st.cache.release(old)
			}
		}
		touched[p.Side] = true
	}
	if touched[ExternalSide] {
		st.syncVersion(ExternalSide)
	}
	if touched[LocalSide] {
		st.syncVersion(LocalSide)
	}
}

// Versions returns the external and local graph versions the value index
// currently reflects: the Version() observed at New, advanced by each
// ApplyPatches on the respective side.
func (e *Engine) Versions() (ext, loc uint64) {
	e.st.mu.RLock()
	defer e.st.mu.RUnlock()
	return e.st.extVer, e.st.locVer
}

func (st *engineState) graph(side Side) *rdf.Graph {
	if side == ExternalSide {
		return st.se
	}
	return st.sl
}

func (st *engineState) syncVersion(side Side) {
	if side == ExternalSide {
		st.extVer = graphVersion(st.se)
	} else {
		st.locVer = graphVersion(st.sl)
	}
}
