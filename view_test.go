package datalink

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linkage"
)

// viewFixture builds a pipeline over a small typed corpus.
func viewFixture(t *testing.T) (*Pipeline, LinkerConfig) {
	t.Helper()
	og := NewGraph()
	cls := NewIRI("http://ex.org/onto#Resistor")
	og.Add(T(cls, RDFType, OWLClass))
	ol, err := OntologyFromGraph(og)
	if err != nil {
		t.Fatal(err)
	}
	pn := NewIRI("http://ex.org/pn")
	se, sl := NewGraph(), NewGraph()
	var links []Link
	for i := 0; i < 15; i++ {
		e := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		l := NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		se.Add(T(e, pn, NewLiteral(fmt.Sprintf("RES-%04d-X", i))))
		sl.Add(T(l, pn, NewLiteral(fmt.Sprintf("RES-%04d-X", i))))
		sl.Add(T(l, RDFType, cls))
		links = append(links, Link{External: e, Local: l})
	}
	p, err := NewPipeline(LearnerConfig{SupportThreshold: 0.01}, TrainingSet{Links: links}, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkerConfig{
		Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: Levenshtein, Weight: 1}},
		Threshold:   0.5,
	}
	return p, cfg
}

// TestQueryViewFrozen: a view keeps answering from its snapshot while
// the live pipeline mutates, and a fresh view sees the mutation.
func TestQueryViewFrozen(t *testing.T) {
	p, cfg := viewFixture(t)
	item := NewIRI("http://ex.org/e/3")
	view := p.Snapshot()

	want, err := view.LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(want[item]) == 0 {
		t.Fatal("view query returned no matches")
	}

	// Live mutation: a new local item that matches e/3 exactly, plus the
	// incremental maintenance a caller performs.
	pn := NewIRI("http://ex.org/pn")
	cls := NewIRI("http://ex.org/onto#Resistor")
	newLoc := NewIRI("http://ex.org/l/new")
	p.Local().Add(T(newLoc, pn, NewLiteral("RES-0003-X")))
	p.Local().Add(T(newLoc, RDFType, cls))
	p.ApplyPatches([]Patch{{Side: LocalSide, Items: []Term{newLoc}}})

	// The old view must not see it.
	got, err := view.LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("frozen view drifted after live mutation:\n got %+v\nwant %+v", got, want)
	}
	for _, m := range got[item] {
		if m.Local == newLoc {
			t.Fatal("frozen view returned a post-snapshot item")
		}
	}

	// A fresh view must.
	fresh, err := p.Snapshot().LinkTopK(context.Background(), []Term{item}, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range fresh[item] {
		found = found || m.Local == newLoc
	}
	if !found {
		t.Fatalf("fresh view missed the upserted item: %+v", fresh[item])
	}
}

// TestQueryViewMatchesPipeline: with no interleaved mutation, the view's
// results equal the pipeline's own.
func TestQueryViewMatchesPipeline(t *testing.T) {
	p, cfg := viewFixture(t)
	items := p.External().AllSubjects()
	want, err := p.LinkTopK(context.Background(), items, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Snapshot().LinkTopK(context.Background(), items, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("view results differ from pipeline results")
	}
}

// TestQueryViewConfigError: invalid configs surface as ErrLinkerConfig,
// the sentinel HTTP handlers classify as client errors.
func TestQueryViewConfigError(t *testing.T) {
	p, cfg := viewFixture(t)
	cfg.Threshold = 3
	_, err := p.Snapshot().LinkTopK(context.Background(), p.External().AllSubjects(), cfg, 1)
	if err == nil {
		t.Fatal("threshold 3 accepted")
	}
	if !errors.Is(err, ErrLinkerConfig) {
		t.Fatalf("error %v does not wrap ErrLinkerConfig", err)
	}
}

// oracleFixture builds a pipeline over two typed classes whose part
// numbers carry the class in their prefix, so classification decides
// each item's reduced space, and warms its engine for cfg the way the
// service does after a learn.
func oracleFixture(t *testing.T) (*Pipeline, LinkerConfig, *Ontology) {
	t.Helper()
	og := NewGraph()
	classes := []Term{NewIRI("http://ex.org/onto#Resistor"), NewIRI("http://ex.org/onto#Capacitor")}
	for _, c := range classes {
		og.Add(T(c, RDFType, OWLClass))
	}
	ol, err := OntologyFromGraph(og)
	if err != nil {
		t.Fatal(err)
	}
	pn := NewIRI("http://ex.org/pn")
	se, sl := NewGraph(), NewGraph()
	var links []Link
	for i := 0; i < 40; i++ {
		prefix, cls := "RES", classes[0]
		if i%2 == 1 {
			prefix, cls = "CAP", classes[1]
		}
		e := NewIRI(fmt.Sprintf("http://ex.org/e/%d", i))
		l := NewIRI(fmt.Sprintf("http://ex.org/l/%d", i))
		se.Add(T(e, pn, NewLiteral(fmt.Sprintf("%s-%04d-Z", prefix, i))))
		sl.Add(T(l, pn, NewLiteral(fmt.Sprintf("%s-%04d-X", prefix, i))))
		sl.Add(T(l, RDFType, cls))
		links = append(links, Link{External: e, Local: l})
	}
	p, err := NewPipeline(LearnerConfig{SupportThreshold: 0.01}, TrainingSet{Links: links}, se, sl, ol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := LinkerConfig{
		Comparators: []Comparator{{ExternalProperty: pn, LocalProperty: pn, Measure: Levenshtein, Weight: 1}},
		Threshold:   0.5,
	}
	if err := p.EnsureLinker(cfg); err != nil {
		t.Fatal(err)
	}
	return p, cfg, ol
}

// oracleTopK is the reference answer for a view: an engine and an
// instance index both built from scratch over the view's graphs, scoring
// each item's candidates from Space and CandidatePairs.
func oracleTopK(t *testing.T, v *QueryView, ol *Ontology, items []Term, cfg LinkerConfig, k int) map[Term][]Match {
	t.Helper()
	eng, err := linkage.New(cfg, v.External(), v.Local())
	if err != nil {
		t.Fatal(err)
	}
	ix := NewInstanceIndex(v.Local(), ol)
	out := make(map[Term][]Match, len(items))
	for _, item := range items {
		sr := Space(item, v.Classify(item), ix)
		var locs []Term
		for _, pr := range CandidatePairs(sr, ix) {
			locs = append(locs, pr[1])
		}
		out[item] = eng.TopK(item, locs, k)
	}
	return out
}

// TestSnapshotLinkMatchesOracle drives seeded random upsert and remove
// interleavings on both sides through ApplyPatches, and after each batch
// checks that a fresh snapshot's LinkTopK — served by the engine patched
// in place — equals the from-scratch reference with bit-identical scores.
func TestSnapshotLinkMatchesOracle(t *testing.T) {
	p, cfg, ol := oracleFixture(t)
	pn := cfg.Comparators[0].ExternalProperty
	classes := []Term{NewIRI("http://ex.org/onto#Resistor"), NewIRI("http://ex.org/onto#Capacitor")}
	rng := rand.New(rand.NewSource(13))
	for step := 0; step < 30; step++ {
		var patches []Patch
		for n := 0; n < 1+rng.Intn(4); n++ {
			side, g, ns := ExternalSide, p.External(), "e"
			if rng.Intn(2) == 1 {
				side, g, ns = LocalSide, p.Local(), "l"
			}
			item := NewIRI(fmt.Sprintf("http://ex.org/%s/%d", ns, rng.Intn(50)))
			for _, tr := range g.Find(item, Term{}, Term{}) {
				g.Remove(tr)
			}
			if rng.Intn(3) == 0 {
				patches = append(patches, Patch{Side: side, Remove: true, Items: []Term{item}})
				continue
			}
			c := rng.Intn(2)
			g.Add(T(item, pn, NewLiteral(fmt.Sprintf("%s-%04d-%c", []string{"RES", "CAP"}[c], rng.Intn(50), 'X'+rng.Intn(3)))))
			if side == LocalSide {
				g.Add(T(item, RDFType, classes[c]))
			}
			patches = append(patches, Patch{Side: side, Items: []Term{item}})
		}
		p.ApplyPatches(patches)

		v := p.Snapshot()
		if eng, err := p.reusableEngine(cfg, v.External(), v.Local()); eng == nil || err != nil {
			t.Fatalf("step %d: the patched engine does not cover the snapshot (err %v)", step, err)
		}
		items := v.External().AllSubjects()
		got, err := v.LinkTopK(context.Background(), items, cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleTopK(t, v, ol, items, cfg, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: snapshot LinkTopK diverges from the reference:\n got %v\nwant %v", step, got, want)
		}
		matched := 0
		for _, ms := range got {
			matched += len(ms)
		}
		if matched == 0 {
			t.Fatalf("step %d: degenerate corpus, no matches at all", step)
		}
	}
}

// TestSnapshotUnpatchedFallsBack: a snapshot holding a graph mutation
// that no ApplyPatches has reached is not covered by the cached engine,
// so the view builds its own engine from its graphs and sees the item.
func TestSnapshotUnpatchedFallsBack(t *testing.T) {
	p, cfg, ol := oracleFixture(t)
	pn := cfg.Comparators[0].ExternalProperty
	item := NewIRI("http://ex.org/e/new")
	p.External().Add(T(item, pn, NewLiteral("RES-0004-X")))

	v := p.Snapshot()
	if eng, _ := p.reusableEngine(cfg, v.External(), v.Local()); eng != nil {
		t.Fatal("the cached engine claims to cover an unpatched mutation")
	}
	got, err := v.LinkTopK(context.Background(), []Term{item}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Match{{External: item, Local: NewIRI("http://ex.org/l/4"), Score: 1}}
	if !reflect.DeepEqual(got[item], want) {
		t.Fatalf("unpatched item linked to %v, want %v", got[item], want)
	}
	if !reflect.DeepEqual(got, oracleTopK(t, v, ol, []Term{item}, cfg, 1)) {
		t.Fatal("fallback engine diverges from the reference")
	}
}

// TestLinkWithinMatchesLinkBest: LinkWithin, the top-1 of every item
// flattened, equals Engine.LinkBest over the same candidate map.
func TestLinkWithinMatchesLinkBest(t *testing.T) {
	p, cfg, _ := oracleFixture(t)
	cfg.Threshold = 0.8 // some items keep no match
	items := append(p.External().AllSubjects(), NewIRI("http://ex.org/e/absent"))
	cands := map[Term][]Term{}
	for _, item := range items {
		for _, pr := range CandidatePairs(p.ReducedSpace(item), p.Instances) {
			cands[item] = append(cands[item], pr[1])
		}
	}
	eng, err := linkage.New(cfg, p.External(), p.Local())
	if err != nil {
		t.Fatal(err)
	}
	want := eng.LinkBest(cands)
	got, err := p.LinkWithin(items, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || len(want) == len(items) {
		t.Fatalf("degenerate fixture: %d of %d items matched", len(want), len(items))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LinkWithin diverges from LinkBest:\n got %v\nwant %v", got, want)
	}
}
