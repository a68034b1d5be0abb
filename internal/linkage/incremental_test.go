package linkage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rdf"
	"repro/internal/similarity"
)

func incrementalConfig() Config {
	return Config{
		Comparators: []Comparator{
			{ExternalProperty: pn, LocalProperty: pn, Measure: similarity.Levenshtein{}, Weight: 2},
			{ExternalProperty: label, LocalProperty: label, Measure: similarity.Jaccard{}, Weight: 1},
		},
		Threshold: 0.2,
		Workers:   2,
	}
}

// upsert re-indexes items on side through a one-patch ApplyPatches.
func upsert(e *Engine, side Side, items ...rdf.Term) {
	e.ApplyPatches([]IndexPatch{{Side: side, Items: items}})
}

// remove drops items on side through a one-patch ApplyPatches.
func remove(e *Engine, side Side, items ...rdf.Term) {
	e.ApplyPatches([]IndexPatch{{Side: side, Remove: true, Items: items}})
}

// current reports whether e's index reflects the graphs' present
// versions, i.e. no graph mutation is still unpatched.
func current(e *Engine, se, sl *rdf.Graph) bool {
	ext, loc := e.Versions()
	return ext == se.Version() && loc == sl.Version()
}

// rebuildEqual asserts that the incrementally maintained engine scores
// every pair exactly like a fresh engine built from the current graphs.
func rebuildEqual(t *testing.T, live *Engine, se, sl *rdf.Graph, pairs [][2]rdf.Term) {
	t.Helper()
	fresh, err := New(live.cfg, se, sl)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := live.ScorePairs(pairs), fresh.ScorePairs(pairs); !reflect.DeepEqual(got, want) {
		t.Fatalf("incremental engine diverges from full rebuild: %d vs %d matches", len(got), len(want))
	}
}

// TestUpsertMatchesRebuild pins the core incremental-maintenance
// guarantee: after any graph mutation followed by Upsert of the touched
// items, the engine is indistinguishable from a full linkage.New rebuild
// — for added items, changed values, multi-valued properties and
// deletions on both sides.
func TestUpsertMatchesRebuild(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(51, 60, 40)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	if !current(eng, se, sl) {
		t.Fatal("new engine must be fresh")
	}

	// Change an existing external item's part number (remove + add).
	e0 := rdf.NewIRI("http://ex.org/e/0")
	for _, o := range se.Objects(e0, pn) {
		se.Remove(rdf.T(e0, pn, o))
	}
	se.Add(rdf.T(e0, pn, rdf.NewLiteral("CHANGED-0815")))
	if current(eng, se, sl) {
		t.Fatal("engine must report stale after graph mutation")
	}
	upsert(eng, ExternalSide, e0)
	if !current(eng, se, sl) {
		t.Fatal("engine must report fresh after Upsert")
	}
	rebuildEqual(t, eng, se, sl, pairs)

	// Add a brand-new local item with both properties, multi-valued.
	lNew := rdf.NewIRI("http://ex.org/l/new")
	sl.Add(rdf.T(lNew, pn, rdf.NewLiteral("CHANGED-0815")))
	sl.Add(rdf.T(lNew, pn, rdf.NewLiteral("CHANGED-0816")))
	sl.Add(rdf.T(lNew, label, rdf.NewLiteral("changed item label")))
	upsert(eng, LocalSide, lNew)
	augmented := append(append([][2]rdf.Term{}, pairs...), [2]rdf.Term{e0, lNew})
	rebuildEqual(t, eng, se, sl, augmented)
	// pn matches exactly (weight 2), labels differ (weight 1): score 2/3.
	if m := eng.TopK(e0, []rdf.Term{lNew}, 1); len(m) != 1 || m[0].Score < 0.6 {
		t.Fatalf("upserted pair must score high, got %v", m)
	}

	// Delete a local item's triples entirely; Upsert must drop it.
	l0 := rdf.NewIRI("http://ex.org/l/0")
	for _, tr := range sl.Find(l0, rdf.Term{}, rdf.Term{}) {
		sl.Remove(tr)
	}
	upsert(eng, LocalSide, l0)
	rebuildEqual(t, eng, se, sl, augmented)

	// Non-literal objects must be ignored exactly like at construction.
	se.Add(rdf.T(e0, pn, rdf.NewIRI("http://ex.org/not-a-literal")))
	upsert(eng, ExternalSide, e0)
	rebuildEqual(t, eng, se, sl, augmented)
}

// TestRemoveDropsItems checks Remove on both sides, without graph
// mutation (soft delete) and its equivalence to scoring absent items.
func TestRemoveDropsItems(t *testing.T) {
	se, sl, pairs, _ := seededGraphs(52, 30, 20)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	e0 := rdf.NewIRI("http://ex.org/e/0")
	l0 := rdf.NewIRI("http://ex.org/l/0")
	remove(eng, ExternalSide, e0)
	remove(eng, LocalSide, l0)
	if got := eng.Score(e0, l0); got != 0 {
		t.Fatalf("score of removed items = %v, want 0", got)
	}
	for _, p := range pairs {
		if p[0] == e0 || p[1] == l0 {
			continue
		}
		// Untouched pairs must be unaffected.
		fresh, _ := New(eng.cfg, se, sl)
		if got, want := eng.Score(p[0], p[1]), fresh.Score(p[0], p[1]); got != want {
			t.Fatalf("Remove disturbed unrelated pair %v: %v != %v", p, got, want)
		}
		break
	}
	// Re-adding via Upsert restores the items from the intact graphs.
	upsert(eng, ExternalSide, e0)
	upsert(eng, LocalSide, l0)
	fresh, _ := New(eng.cfg, se, sl)
	if got, want := eng.Score(e0, l0), fresh.Score(e0, l0); got != want {
		t.Fatalf("Upsert after Remove: %v != %v", got, want)
	}
}

// TestUpsertSharedWithOptions checks that engines derived via WithOptions
// share the live index: an update through one is visible to the other.
func TestUpsertSharedWithOptions(t *testing.T) {
	se, sl, _, _ := seededGraphs(53, 10, 10)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := eng.WithOptions(0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	e0 := rdf.NewIRI("http://ex.org/e/0")
	l0 := rdf.NewIRI("http://ex.org/l/0")
	for _, o := range se.Objects(e0, pn) {
		se.Remove(rdf.T(e0, pn, o))
	}
	for _, o := range sl.Objects(l0, pn) {
		sl.Remove(rdf.T(l0, pn, o))
	}
	se.Add(rdf.T(e0, pn, rdf.NewLiteral("SHARED-1")))
	sl.Add(rdf.T(l0, pn, rdf.NewLiteral("SHARED-1")))
	upsert(eng, ExternalSide, e0)
	upsert(eng, LocalSide, l0)
	if s := derived.Score(e0, l0); s < 0.6 {
		t.Fatalf("derived engine does not see upsert: score %v", s)
	}
	extV, locV := derived.Versions()
	if extV != se.Version() || locV != sl.Version() {
		t.Fatalf("Versions() = (%d, %d), graphs at (%d, %d)", extV, locV, se.Version(), sl.Version())
	}
}

// TestConcurrentQueryUnderUpdate interleaves upsert and remove patches
// with LinkBest, ScorePairs and TopK from several goroutines. Run under
// -race this is the engine's core liveness/consistency test: queries
// must never observe a torn index, and every returned score must be a valid score
// under some prefix of the update sequence (here simply: no panics, no
// races, scores within [0, 1]).
func TestConcurrentQueryUnderUpdate(t *testing.T) {
	se, sl, pairs, cands := seededGraphs(54, 80, 60)
	eng, err := New(incrementalConfig(), se, sl)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	var wg sync.WaitGroup

	// Writer: keeps rewriting a rotating set of external items. Graph
	// mutation itself is confined to this goroutine (rdf.Graph is not
	// safe for concurrent mutation); the engine's lock makes the index
	// updates safe against the readers below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for r := 0; r < rounds; r++ {
			item := rdf.NewIRI(fmt.Sprintf("http://ex.org/e/%d", rng.Intn(80)))
			for _, o := range se.Objects(item, pn) {
				se.Remove(rdf.T(item, pn, o))
			}
			se.Add(rdf.T(item, pn, rdf.NewLiteral(fmt.Sprintf("LIVE-%d", r))))
			upsert(eng, ExternalSide, item)
			if r%5 == 0 {
				remove(eng, ExternalSide, item)
				upsert(eng, ExternalSide, item)
			}
		}
	}()

	check := func(ms []Match) {
		for _, m := range ms {
			if m.Score < 0 || m.Score > 1 {
				t.Errorf("score out of range: %v", m.Score)
				return
			}
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				switch r % 3 {
				case 0:
					check(eng.LinkBest(cands))
				case 1:
					check(eng.ScorePairs(pairs))
				default:
					// The served read path: one item's top-k over its
					// candidates.
					for ext, locs := range cands {
						check(eng.TopK(ext, locs, 3))
					}
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles the index must equal a full rebuild.
	rebuildEqual(t, eng, se, sl, pairs)
}
