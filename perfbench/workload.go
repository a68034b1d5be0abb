package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	datalink "repro"
)

// Request kinds the closed loop issues.
type opKind int

const (
	opLink  opKind = iota // POST /v1/link
	opWrite               // POST /v1/items/bulk (NDJSON)
	opLearn               // POST /v1/learn
)

func (k opKind) String() string {
	return [...]string{"link", "write", "learn"}[k]
}

// Shape of every request, fixed by the benchmark's definition.
const (
	queryItems   = 8                        // external items per link query
	topK         = 3                        // matches requested per item
	ingestBatch  = 100                      // lines per ingest commit: half upserts, half removes
	learnEvery   = 10                       // ingest commits between two learns
	churnCommits = 4                        // churn commits between two churn queries
	churnBatch   = 50                       // lines per churn commit on the catalog side:
	churnAway    = 12                       // removed, and re-added by the next commit,
	churnEdits   = churnBatch - 2*churnAway // and edited
)

// op is one request of a workload with everything needed to send it and
// to check its answer. Bodies are built before the op's clock starts.
type op struct {
	kind  opKind
	path  string
	body  []byte
	items int // external items linked, or items committed

	query []string // link: queried external IRIs

	side    datalink.Side // write
	upserts []*item       // write: items upserted, in body order
	removes []string      // write: IRIs removed, in body order

	links []linkPair // learn: links appended to the training set

	gcFirst bool // force a GC, outside the clock, before sending
}

// world is the benchmark's own model of what the service holds: present
// items, their triple counts and the training links. The generator
// advances one copy as it builds ops; the runner advances another as the
// service acknowledges them, and checks answers against it.
type world struct {
	ext, loc             map[string]*item
	extTriples, locTrips int
	links                []linkPair
}

func newWorld(ext, loc []*item, links []linkPair) *world {
	w := &world{ext: map[string]*item{}, loc: map[string]*item{}}
	for _, it := range ext {
		w.ext[it.ID] = it
		w.extTriples += it.triples()
	}
	for _, it := range loc {
		w.loc[it.ID] = it
		w.locTrips += it.triples()
	}
	w.links = append([]linkPair(nil), links...)
	return w
}

// apply advances the model by one acknowledged op, with the service's
// semantics: removals purge the training links that end at the removed
// item; learns append links.
func (w *world) apply(o *op) {
	switch o.kind {
	case opWrite:
		items, count := w.ext, &w.extTriples
		if o.side == datalink.LocalSide {
			items, count = w.loc, &w.locTrips
		}
		for _, id := range o.removes {
			if old, ok := items[id]; ok {
				*count -= old.triples()
				delete(items, id)
			}
		}
		for _, it := range o.upserts {
			if old, ok := items[it.ID]; ok {
				*count -= old.triples()
			}
			items[it.ID] = it
			*count += it.triples()
		}
		if len(o.removes) > 0 {
			gone := make(map[string]bool, len(o.removes))
			for _, id := range o.removes {
				gone[id] = true
			}
			kept := w.links[:0:0]
			for _, l := range w.links {
				end := l.External
				if o.side == datalink.LocalSide {
					end = l.Local
				}
				if !gone[end] {
					kept = append(kept, l)
				}
			}
			w.links = kept
		}
	case opLearn:
		w.links = append(w.links, o.links...)
	}
}

// setup is a workload's initial corpus: the seed every set-up restores.
type setup struct {
	ext, loc []*item
	train    []linkPair
}

// workload generates one workload's deterministic op sequence.
type workload interface {
	// seed returns the corpus the service starts from.
	seed() setup
	// next builds the next op of the sequence.
	next() (*op, error)
	// primary is the request kind whose latency the workload reports.
	primary() opKind
	// minOps is the least number of ops of each kind a run must time.
	minOps() map[opKind]int
}

// newWorkload builds the named workload over c, its requests drawn by
// seed. sizes are the held-out items' estimated linking costs.
func newWorkload(name string, c *corpus, sizes map[string]int, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "link":
		return &linkLoad{c: c, q: newQuerySource(c, sizes, rng)}, nil
	case "ingest":
		return newIngestLoad(c, rng), nil
	case "churn":
		return newChurnLoad(c, sizes, rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want link, ingest or churn)", name)
}

// querySource draws link queries from the held-out external items,
// stratified by cost: the items are ranked by estimated linking-space
// size and cut into eight strata, and every query takes one item from
// each, drawn from a seeded permutation of the stratum (reshuffled when
// it runs out). A query's work then varies far less from query to query
// and from seed to seed than with free draws, so p50 and p90 are steady.
type querySource struct {
	rng    *rand.Rand
	strata [queryItems][]string
	next   [queryItems]int
}

func newQuerySource(c *corpus, sizes map[string]int, rng *rand.Rand) *querySource {
	ids := make([]string, len(c.held))
	for i, l := range c.held {
		ids[i] = l.External
	}
	sort.Slice(ids, func(i, j int) bool {
		if sizes[ids[i]] != sizes[ids[j]] {
			return sizes[ids[i]] < sizes[ids[j]]
		}
		return ids[i] < ids[j]
	})
	q := &querySource{rng: rng}
	for s := range q.strata {
		q.strata[s] = ids[s*len(ids)/queryItems : (s+1)*len(ids)/queryItems]
		rng.Shuffle(len(q.strata[s]), func(i, j int) { q.strata[s][i], q.strata[s][j] = q.strata[s][j], q.strata[s][i] })
	}
	return q
}

func (q *querySource) op() (*op, error) {
	items := make([]string, 0, queryItems)
	for s, ids := range q.strata {
		if q.next[s] == len(ids) {
			q.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			q.next[s] = 0
		}
		items = append(items, ids[q.next[s]])
		q.next[s]++
	}
	q.rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	body, err := json.Marshal(map[string]any{"items": items, "top_k": topK})
	if err != nil {
		return nil, err
	}
	return &op{kind: opLink, path: "/v1/link", body: body, items: len(items), query: items}, nil
}

// linkLoad is the read-only workload: link queries for held-out items
// against the model learned in set-up.
//
// Each query is preceded by a forced GC outside the clock. A query
// allocates 65 MiB against a live heap of about 190 MiB, so without it
// one query in three ran inside a GC cycle and took two to three times
// as long (465–670 ms against 165–290 ms in one run). p50 then sat just
// below the slow mode and moved with the share of queries in it: its IQR
// over ten seeds reached 0.26. GC work per query is still counted in the
// runtime.* metrics.
type linkLoad struct {
	c *corpus
	q *querySource
}

func (l *linkLoad) seed() setup {
	return setup{ext: values(l.c.ext), loc: values(l.c.loc), train: l.c.train}
}
func (l *linkLoad) next() (*op, error) {
	o, err := l.q.op()
	if o != nil {
		o.gcFirst = true
	}
	return o, err
}
func (l *linkLoad) primary() opKind        { return opLink }
func (l *linkLoad) minOps() map[opKind]int { return map[opKind]int{opLink: 100} }

// ingestLoad is the write-heavy workload: the service starts with half
// the external items and their links; every commit upserts 50 absent
// items and removes the 50 oldest present ones, so the corpus stays the
// same size, and every learnEvery commits a learn appends the links of
// the items upserted since the last one.
//
// The first commit after each learn is preceded by a forced GC outside
// the clock. A learn allocates 139 MiB; without it the GC cycle the learn
// started ran its mark phase across the commits that followed, which
// took up to ten times as long, and p90 sat in that tail. With it every
// commit runs outside a GC cycle; learns still pay for their own.
type ingestLoad struct {
	c         *corpus
	first     []*item
	present   []string // FIFO, oldest first
	absent    []string // FIFO, next to upsert first
	commits   int
	unlearned []linkPair
}

func newIngestLoad(c *corpus, rng *rand.Rand) *ingestLoad {
	ids := make([]string, len(c.links))
	for i, l := range c.links {
		ids[i] = l.External
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	half := len(ids) / 2
	l := &ingestLoad{c: c}
	l.present = append(l.present, ids[:half]...)
	l.absent = append(l.absent, ids[half:]...)
	for _, id := range l.present {
		l.first = append(l.first, c.ext[id])
	}
	return l
}

func (l *ingestLoad) seed() setup {
	train := make([]linkPair, 0, len(l.first))
	for _, it := range l.first {
		train = append(train, linkPair{External: it.ID, Local: l.c.truth[it.ID]})
	}
	return setup{ext: l.first, loc: values(l.c.loc), train: train}
}

func (l *ingestLoad) next() (*op, error) {
	if l.commits > 0 && l.commits%learnEvery == 0 && len(l.unlearned) > 0 {
		links := l.unlearned
		l.unlearned = nil
		body, err := json.Marshal(map[string]any{"links": links})
		if err != nil {
			return nil, err
		}
		return &op{kind: opLearn, path: "/v1/learn", body: body, links: links}, nil
	}
	l.commits++
	n := ingestBatch / 2
	o := &op{kind: opWrite, side: datalink.ExternalSide, gcFirst: l.commits%learnEvery == 1}
	for _, id := range l.absent[:n] {
		o.upserts = append(o.upserts, l.c.ext[id])
		l.unlearned = append(l.unlearned, linkPair{External: id, Local: l.c.truth[id]})
	}
	o.removes = append(o.removes, l.present[:n]...)
	l.present = append(l.present[n:], l.absent[:n]...)
	l.absent = append(l.absent[n:], o.removes...)
	return bulkOp(o, "external")
}

func (l *ingestLoad) primary() opKind { return opWrite }
func (l *ingestLoad) minOps() map[opKind]int {
	return map[opKind]int{opWrite: 100, opLearn: 10}
}

// churnLoad interleaves reads with catalog writes: one held-out link
// query, then churnCommits 50-line catalog commits, and so on. Every
// commit has the same shape, so its latency has one mode: 26 present
// items get a seeded one-character edit to their part number, 12 present
// items are removed, and the 12 the previous commit removed are re-added
// (the seed holds 12 items back for the first commit). Every query
// therefore runs on a freshly published snapshot with a patched instance
// index and value cache.
//
// Each query is preceded by a forced GC outside the clock. Without it a
// GC cycle started by the round's allocations (65 MiB per query, 16 MiB
// per commit) ran its mark phase across three or four commits, which took
// two to three times as long; about 20% of commits fell in that mode, so
// p90 sat inside it and moved by a quarter from run to run. GC time is
// measured in ingest's learns, and GC work counted per request in
// runtime.*.
type churnLoad struct {
	c    *corpus
	q    *querySource
	rng  *rand.Rand
	all  []string         // every catalog IRI, sorted
	cur  map[string]*item // present catalog items
	away []*item          // removed by the last commit, re-added by the next
	ops  int
}

func newChurnLoad(c *corpus, sizes map[string]int, rng *rand.Rand) *churnLoad {
	l := &churnLoad{c: c, q: newQuerySource(c, sizes, rng), rng: rng, all: sortedIDs(c.loc), cur: map[string]*item{}}
	for _, id := range l.all {
		l.cur[id] = c.loc[id]
	}
	for _, id := range l.pick(churnAway) {
		l.away = append(l.away, l.cur[id])
		delete(l.cur, id)
	}
	return l
}

func (l *churnLoad) seed() setup {
	return setup{ext: values(l.c.ext), loc: values(l.cur), train: l.c.train}
}

// pick draws n distinct present catalog IRIs.
func (l *churnLoad) pick(n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		id := l.all[l.rng.Intn(len(l.all))]
		if l.cur[id] != nil && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

func (l *churnLoad) next() (*op, error) {
	l.ops++
	if l.ops%(churnCommits+1) == 1 {
		o, err := l.q.op()
		if o != nil {
			o.gcFirst = true
		}
		return o, err
	}
	o := &op{kind: opWrite, side: datalink.LocalSide}
	picked := l.pick(churnEdits + churnAway)
	for _, id := range picked[:churnEdits] {
		it := editPartNumber(l.cur[id], l.rng)
		l.cur[id] = it
		o.upserts = append(o.upserts, it)
	}
	back := l.away
	l.away = nil
	o.removes = picked[churnEdits:]
	for _, id := range o.removes {
		l.away = append(l.away, l.cur[id])
		delete(l.cur, id)
	}
	for _, it := range back {
		l.cur[it.ID] = it
		o.upserts = append(o.upserts, it)
	}
	return bulkOp(o, "local")
}

func (l *churnLoad) primary() opKind { return opWrite }
func (l *churnLoad) minOps() map[opKind]int {
	return map[opKind]int{opWrite: 200, opLink: 50}
}

// partAlphabet is what a one-character part-number edit draws from.
const partAlphabet = "ABCDEFGHJKLMNPQRSTUVWXYZ0123456789"

// editPartNumber returns a copy of it whose first part-number value has
// one character replaced by a different one.
func editPartNumber(it *item, rng *rand.Rand) *item {
	out := &item{ID: it.ID, Props: make(map[string][]string, len(it.Props)), Classes: it.Classes}
	for p, vs := range it.Props {
		out.Props[p] = vs
	}
	prop := datalink.PartNumberProperty.Value
	vs := append([]string(nil), it.Props[prop]...)
	if len(vs) == 0 || vs[0] == "" {
		vs = append(vs[:0:0], string(partAlphabet[rng.Intn(len(partAlphabet))]))
	} else {
		b := []byte(vs[0])
		pos := rng.Intn(len(b))
		c := partAlphabet[rng.Intn(len(partAlphabet))]
		for c == b[pos] {
			c = partAlphabet[rng.Intn(len(partAlphabet))]
		}
		b[pos] = c
		vs[0] = string(b)
	}
	sort.Strings(vs)
	out.Props[prop] = vs
	return out
}

// bulkOp renders a write op as an NDJSON bulk body: upserts first, then
// removes, in one commit (the service batches 1000 lines per commit).
func bulkOp(o *op, side string) (*op, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, it := range o.upserts {
		if err := enc.Encode(it); err != nil {
			return nil, err
		}
	}
	for _, id := range o.removes {
		if err := enc.Encode(map[string]any{"id": id, "remove": true}); err != nil {
			return nil, err
		}
	}
	o.path = "/v1/items/bulk?side=" + side
	o.body = buf.Bytes()
	o.items = len(o.upserts) + len(o.removes)
	return o, nil
}

// values returns m's items ordered by IRI.
func values(m map[string]*item) []*item {
	out := make([]*item, 0, len(m))
	for _, id := range sortedIDs(m) {
		out = append(out, m[id])
	}
	return out
}
