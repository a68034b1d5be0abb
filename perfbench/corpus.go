package main

import (
	"fmt"
	"math/rand"
	"sort"

	datalink "repro"
)

// item is one item description as the benchmark knows it. It is the
// source of every write body and the oracle the output checks score
// answers against, so it never reads the service's graphs.
type item struct {
	ID      string              `json:"id"`
	Props   map[string][]string `json:"properties"`
	Classes []string            `json:"classes,omitempty"`
}

// triples is the number of triples the item adds to a graph.
func (it *item) triples() int {
	n := len(it.Classes)
	for _, vs := range it.Props {
		n += len(vs)
	}
	return n
}

// linkPair is one same-as link by item IRI.
type linkPair struct {
	External string `json:"external"`
	Local    string `json:"local"`
}

// corpus is the generated paper corpus plus the benchmark's seeded view
// of it: item descriptions, the true links, and the 80/20 split into
// training links and held-out query items.
type corpus struct {
	ol    *datalink.Ontology
	ext   map[string]*item
	loc   map[string]*item
	truth map[string]string // external IRI -> local IRI of its true link
	links []linkPair        // every true link, in seeded order
	train []linkPair        // first 80% of links
	held  []linkPair        // last 20%: the link workloads' query items
}

// corpusSeed fixes the generated corpus and its training/held-out split.
// A run's --seed draws its requests, not its corpus: corpora of other
// seeds differ in class sizes and learned rules, which moved link p50 by
// 12-16% from seed to seed where one corpus under different request
// draws moves it by about as much as repeating one seed does.
const corpusSeed = 42

// newCorpus generates the corpus for seed and splits its links, seeded
// by the same seed. scale "paper" is the paper corpus (10,265 external
// items, 30,000 catalog items); "tiny" is the generator's small
// configuration, for the benchmark's own tests. It also returns the
// generated graphs, which the caller may read before dropping them.
func newCorpus(scale string, seed int64) (*corpus, *datalink.Dataset, error) {
	var cfg datalink.CorpusConfig
	switch scale {
	case "paper":
		cfg = datalink.PaperCorpusConfig(seed)
	case "tiny":
		cfg = datalink.SmallCorpusConfig(seed)
	default:
		return nil, nil, fmt.Errorf("unknown scale %q", scale)
	}
	ds, err := datalink.GenerateCorpus(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("generating corpus: %w", err)
	}
	c := &corpus{
		ol:    ds.Ontology,
		ext:   itemsOf(ds.External),
		loc:   itemsOf(ds.Local),
		truth: make(map[string]string, ds.Training.Len()),
	}
	for _, l := range ds.Training.Links {
		if _, dup := c.truth[l.External.Value]; dup {
			continue
		}
		c.truth[l.External.Value] = l.Local.Value
		c.links = append(c.links, linkPair{External: l.External.Value, Local: l.Local.Value})
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(c.links), func(i, j int) { c.links[i], c.links[j] = c.links[j], c.links[i] })
	cut := len(c.links) * 8 / 10
	c.train, c.held = c.links[:cut], c.links[cut:]
	return c, ds, nil
}

// itemsOf reads every subject of g into an item: literal objects become
// property values (sorted), rdf:type IRIs become classes (sorted).
func itemsOf(g *datalink.Graph) map[string]*item {
	out := map[string]*item{}
	for _, s := range g.AllSubjects() {
		it := &item{ID: s.Value, Props: map[string][]string{}}
		for _, tr := range g.Find(s, datalink.Term{}, datalink.Term{}) {
			switch {
			case tr.P == datalink.RDFType && tr.O.IsIRI():
				it.Classes = append(it.Classes, tr.O.Value)
			case tr.O.IsLiteral():
				it.Props[tr.P.Value] = append(it.Props[tr.P.Value], tr.O.Value)
			}
		}
		sort.Strings(it.Classes)
		for _, vs := range it.Props {
			sort.Strings(vs)
		}
		out[s.Value] = it
	}
	return out
}

// graphOf builds a fresh graph holding the given items.
func graphOf(items []*item) *datalink.Graph {
	g := datalink.NewGraph()
	for _, it := range items {
		addItem(g, it)
	}
	return g
}

// addItem adds an item's triples to g.
func addItem(g *datalink.Graph, it *item) {
	s := datalink.NewIRI(it.ID)
	for p, vs := range it.Props {
		pt := datalink.NewIRI(p)
		for _, v := range vs {
			g.Add(datalink.T(s, pt, datalink.NewLiteral(v)))
		}
	}
	for _, c := range it.Classes {
		g.Add(datalink.T(s, datalink.RDFType, datalink.NewIRI(c)))
	}
}

// removeItem drops every triple of the item from g.
func removeItem(g *datalink.Graph, id string) {
	for _, tr := range g.Find(datalink.NewIRI(id), datalink.Term{}, datalink.Term{}) {
		g.Remove(tr)
	}
}

// toLinks converts link pairs to the library's link type.
func toLinks(ps []linkPair) []datalink.Link {
	out := make([]datalink.Link, len(ps))
	for i, p := range ps {
		out[i] = datalink.Link{External: datalink.NewIRI(p.External), Local: datalink.NewIRI(p.Local)}
	}
	return out
}

// sortedIDs returns the keys of m in ascending order.
func sortedIDs(m map[string]*item) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// spaceSizes estimates the cost of linking each held-out item: the summed
// sizes of the subspaces its predicted classes select, under a model
// learned from the training links exactly as the service learns it.
// Query draws are stratified by it.
func spaceSizes(c *corpus, ds *datalink.Dataset) (map[string]int, error) {
	m, err := datalink.Learn(datalink.LearnerConfig{}, datalink.TrainingSet{Links: toLinks(c.train)}, ds.External, ds.Local, ds.Ontology)
	if err != nil {
		return nil, fmt.Errorf("learning the stratification model: %w", err)
	}
	cls := datalink.NewClassifier(&m.Rules, m.Config.Splitter)
	ix := datalink.NewInstanceIndex(ds.Local, ds.Ontology)
	out := make(map[string]int, len(c.held))
	for _, l := range c.held {
		n := 0
		for _, p := range cls.Classify(datalink.NewIRI(l.External), ds.External) {
			n += ix.Count(p.Class)
		}
		out[l.External] = n
	}
	return out, nil
}
