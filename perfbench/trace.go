package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	datalink "repro"
	"repro/internal/linkage"
	"repro/internal/par"
	"repro/internal/service"
	"repro/internal/store"
)

// The traced run (--trace 1) times the first half of the loop like an
// untraced run, then replays every op of the second half through the
// exported functions of each layer on the benchmark's own copy of the
// same inputs, right after the service has answered it:
//
//	service.link   the POST /v1/link handler call
//	  core.classify   Classifier.Classify, per item
//	  core.expand     core.Space + CandidatePairs, per item
//	  linkage.score   Engine.TopK over the items, fanned out like the service
//	service.bulk   Service.BulkIngest on the service itself
//	  store.fs.write  every WAL write, through the store.FS timing wrapper
//	  linkage.patch   Engine.ApplyPatches on the copy's engine
//	service.learn  the POST /v1/learn handler call
//	  core.learn           datalink.LearnCtx
//	  core.instances.build NewInstanceIndex + Freeze
//	  linkage.build        linkage.New
//
// A replayed child runs after its parent returns, on identical inputs,
// so a parent's self time is its duration minus its children's. The
// replay's answers and rules must equal the service's.

// span is one timed call. Parent is -1 for a root.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps the run's spans in memory and the replica they time.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span

	rep *replica
	fs  *timingFS
	sm  *store.Metrics

	untraced int   // samples timed before the traced half
	tStart   int   // first span of the traced half
	pending  []*op // untraced writes the replica has not seen yet
}

func newTracer(c *corpus, su setup, hs *harness, fs *timingFS) (*tracer, error) {
	t := &tracer{t0: time.Now(), fs: fs, sm: hs.sm}
	fs.tr = t
	t.rep = &replica{
		se:    graphOf(su.ext),
		sl:    graphOf(su.loc),
		ol:    c.ol,
		links: toLinks(su.train),
		cfg:   datalink.DefaultLinkingConfig(),
	}
	root := t.begin("setup.learn", -1)
	err := t.rep.learn(t, root)
	t.end(root)
	if err != nil {
		return nil, err
	}
	return t, t.sameRules(hs)
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.t0)
}

func (t *tracer) count(id int, name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].Counts == nil {
		t.spans[id].Counts = map[string]float64{}
	}
	t.spans[id].Counts[name] += v
}

// sameRules checks that the replica learned exactly the service's rules.
func (t *tracer) sameRules(hs *harness) error {
	got, err := hs.rules()
	if err != nil {
		return err
	}
	want := t.rep.ruleTexts()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		return fmt.Errorf("replayed rules differ from GET /v1/rules (%d vs %d rules)", len(want), len(got))
	}
	return nil
}

// bulk commits a write op through Service.BulkIngest with the WAL's file
// writes recorded under span, counting the WAL appends and bytes.
func (t *tracer) bulk(id int, hs *harness, o *op) (bulkReport, error) {
	apps, wal := t.sm.AppendsTotal.Value(), t.sm.AppendBytesTotal.Value()
	t.fs.setParent(id)
	rep, err := hs.svc.BulkIngest(context.Background(), bytes.NewReader(o.body), o.side, service.BulkNDJSON, 0)
	t.fs.setParent(-1)
	t.count(id, "items", float64(o.items))
	t.count(id, "wal_appends", float64(t.sm.AppendsTotal.Value()-apps))
	t.count(id, "wal_bytes", float64(t.sm.AppendBytesTotal.Value()-wal))
	return bulkReport{Upserted: rep.Upserted, Removed: rep.Removed, Batches: rep.Batches, Errors: rep.Errors}, err
}

// link replays a link op on the replica and checks its answers equal the
// service's.
func (t *tracer) link(parent int, o *op, got []resultJSON, ck *checker) {
	want := t.rep.link(t, parent, o.query)
	byItem := map[string][]matchJSON{}
	for _, r := range got {
		byItem[r.Item] = r.Matches
	}
	for _, item := range o.query {
		a, b := byItem[item], want[item]
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i].Local == b[i].Local.Value && a[i].Score == b[i].Score
		}
		if !same {
			ck.fail("replay: %s answered %v by the service, %v by the replay", item, a, b)
		}
	}
}

// learn replays a learn on the replica over the world's links and checks
// the rules equal the service's.
func (t *tracer) learn(parent int, w *world, hs *harness, ck *checker) error {
	t.rep.links = toLinks(w.links)
	if err := t.rep.learn(t, parent); err != nil {
		return err
	}
	if err := t.sameRules(hs); err != nil {
		ck.fail("%v", err)
	}
	return nil
}

// catchUp applies the untraced half's mutations to the replica, untimed,
// and rebuilds its indexes, so the traced half starts in sync.
func (t *tracer) catchUp(c *corpus, w *world) error {
	for _, o := range t.pending {
		t.rep.mutate(o)
	}
	t.pending = nil
	t.rep.links = toLinks(w.links)
	if err := t.rep.rebuild(); err != nil {
		return err
	}
	t.tStart = len(t.spans)
	return nil
}

// replica is the benchmark's own copy of the service's state, driven
// through the layers' exported functions.
type replica struct {
	se, sl *datalink.Graph
	ol     *datalink.Ontology
	links  []datalink.Link
	cfg    datalink.LinkerConfig

	model *datalink.Model
	cls   *datalink.Classifier
	ix    *datalink.InstanceIndex
	eng   *linkage.Engine
	// Frozen views every replayed query reads, republished after each
	// mutation like the service's query state.
	seSnap *datalink.Graph
	ixSnap *datalink.InstanceIndex
}

// learn relearns the model and rebuilds the instance index and engine,
// as a service learn does, timing each step under parent.
func (r *replica) learn(t *tracer, parent int) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin("core.learn", parent)
	m, err := datalink.LearnCtx(context.Background(), datalink.LearnerConfig{},
		datalink.TrainingSet{Links: append([]datalink.Link(nil), r.links...)}, r.se.Snapshot(), r.sl.Snapshot(), r.ol)
	t.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("replay learn: %w", err)
	}
	t.count(id, "allocs", float64(after.Mallocs-before.Mallocs))
	t.count(id, "rules", float64(m.Rules.Len()))
	r.model = m
	r.cls = datalink.NewClassifier(&m.Rules, m.Config.Splitter)
	id = t.begin("core.instances.build", parent)
	r.ix = datalink.NewInstanceIndex(r.sl, r.ol)
	r.ix.Freeze(r.classes())
	t.end(id)
	id = t.begin("linkage.build", parent)
	r.eng, err = linkage.New(r.cfg, r.se, r.sl)
	t.end(id)
	if err != nil {
		return fmt.Errorf("replay engine build: %w", err)
	}
	r.publish()
	return nil
}

// rebuild recomputes the instance index and engine from the replica's
// graphs, untimed.
func (r *replica) rebuild() error {
	r.ix = datalink.NewInstanceIndex(r.sl, r.ol)
	r.ix.Freeze(r.classes())
	var err error
	r.eng, err = linkage.New(r.cfg, r.se, r.sl)
	r.publish()
	return err
}

func (r *replica) publish() {
	r.seSnap = r.se.Snapshot()
	r.ixSnap = r.ix.Snapshot()
}

// classes are the rule classes whose instance sets the index keeps warm.
func (r *replica) classes() []datalink.Term {
	out := make([]datalink.Term, 0, r.model.Rules.Len())
	for _, rl := range r.model.Rules.Rules {
		out = append(out, rl.Class)
	}
	return out
}

func (r *replica) ruleTexts() []string {
	out := make([]string, 0, r.model.Rules.Len())
	for _, rl := range r.model.Rules.Rules {
		out = append(out, rl.String())
	}
	return out
}

// link answers a query the way the service's link path does: classify
// and expand each item serially, then score the items through the
// engine's TopK fanned out like the service's. It also counts, untimed,
// every pair at or above the threshold for the pass rate.
func (r *replica) link(t *tracer, parent int, query []string) map[string][]datalink.Match {
	type cands struct {
		item datalink.Term
		locs []datalink.Term
	}
	all := make([]cands, 0, len(query))
	var before, after runtime.MemStats
	for _, q := range query {
		item := datalink.NewIRI(q)
		id := t.begin("core.classify", parent)
		preds := r.cls.Classify(item, r.seSnap)
		t.end(id)
		t.count(id, "predictions", float64(len(preds)))

		runtime.ReadMemStats(&before)
		id = t.begin("core.expand", parent)
		sr := datalink.Space(item, preds, r.ixSnap)
		pairs := datalink.CandidatePairs(sr, r.ixSnap)
		locs := make([]datalink.Term, 0, len(pairs))
		for _, p := range pairs {
			locs = append(locs, p[1])
		}
		t.end(id)
		runtime.ReadMemStats(&after)
		t.count(id, "candidates", float64(len(locs)))
		t.count(id, "catalog", float64(sr.CatalogSize))
		t.count(id, "alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
		all = append(all, cands{item: item, locs: locs})
	}

	type answer struct {
		item datalink.Term
		ms   []datalink.Match
	}
	runtime.ReadMemStats(&before)
	id := t.begin("linkage.score", parent)
	scored, _ := par.MapChunks(context.Background(), par.Workers(r.cfg.Workers), 0, all, func(c cands) (answer, bool) {
		return answer{item: c.item, ms: r.eng.TopK(c.item, c.locs, topK)}, true
	})
	t.end(id)
	runtime.ReadMemStats(&after)
	out := make(map[string][]datalink.Match, len(scored))
	for _, a := range scored {
		out[a.item.Value] = a.ms
	}
	pairs, pass := 0, 0
	for _, c := range all {
		pairs += len(c.locs)
		pass += len(r.eng.TopK(c.item, c.locs, 0))
	}
	t.count(id, "items", float64(len(all)))
	t.count(id, "pairs", float64(pairs))
	t.count(id, "matches", float64(pass))
	t.count(id, "alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
	return out
}

// mutate applies a write op to the replica's graphs the way the service
// does: an upsert replaces every triple of the item, a remove drops them.
func (r *replica) mutate(o *op) []linkage.IndexPatch {
	g := r.se
	if o.side == datalink.LocalSide {
		g = r.sl
	}
	var patches []linkage.IndexPatch
	if len(o.upserts) > 0 {
		terms := make([]datalink.Term, len(o.upserts))
		for i, it := range o.upserts {
			removeItem(g, it.ID)
			addItem(g, it)
			terms[i] = datalink.NewIRI(it.ID)
		}
		patches = append(patches, linkage.IndexPatch{Side: o.side, Items: terms})
	}
	if len(o.removes) > 0 {
		terms := make([]datalink.Term, len(o.removes))
		for i, id := range o.removes {
			removeItem(g, id)
			terms[i] = datalink.NewIRI(id)
		}
		patches = append(patches, linkage.IndexPatch{Side: o.side, Remove: true, Items: terms})
	}
	return patches
}

// write replays a commit: graph mutation, the timed engine patch, then
// the instance-index patch and republish.
func (r *replica) write(t *tracer, parent int, o *op) {
	patches := r.mutate(o)
	id := t.begin("linkage.patch", parent)
	r.eng.ApplyPatches(patches)
	t.end(id)
	if o.side != datalink.LocalSide {
		r.publish()
		return
	}
	for _, p := range patches {
		for _, item := range p.Items {
			if p.Remove {
				r.ix.RemoveInstance(item)
			} else {
				r.ix.UpsertInstance(item, r.sl.Objects(item, datalink.RDFType))
			}
		}
	}
	r.ix.Freeze(r.classes())
	r.publish()
}

// timingFS wraps the store's filesystem so every file write made while a
// bulk span is open is recorded as a store.fs.write child span.
type timingFS struct {
	store.FS
	mu     sync.Mutex
	tr     *tracer
	parent int
}

func newTimingFS() *timingFS { return &timingFS{FS: store.OSFS(), parent: -1} }

// fsOrNil keeps a nil *timingFS from becoming a non-nil store.FS.
func fsOrNil(f *timingFS) store.FS {
	if f == nil {
		return nil
	}
	return f
}

func (f *timingFS) setParent(id int) {
	f.mu.Lock()
	f.parent = id
	f.mu.Unlock()
}

func (f *timingFS) Create(path string) (store.File, error) { return f.wrap(f.FS.Create(path)) }

func (f *timingFS) OpenWrite(path string) (store.File, error) { return f.wrap(f.FS.OpenWrite(path)) }

func (f *timingFS) CreateTemp(dir, pattern string) (store.File, error) {
	return f.wrap(f.FS.CreateTemp(dir, pattern))
}

func (f *timingFS) wrap(file store.File, err error) (store.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

type timingFile struct {
	store.File
	fs *timingFS
}

func (tf *timingFile) Write(p []byte) (int, error) {
	tf.fs.mu.Lock()
	tr, parent := tf.fs.tr, tf.fs.parent
	tf.fs.mu.Unlock()
	if tr == nil || parent < 0 {
		return tf.File.Write(p)
	}
	id := tr.begin("store.fs.write", parent)
	n, err := tf.File.Write(p)
	tr.end(id)
	return n, err
}

// agg sums the durations and counts of the traced half's spans by name.
type agg struct {
	n      int
	dur    time.Duration
	self   time.Duration
	counts map[string]float64
}

func (t *tracer) aggregate(from int) map[string]*agg {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]*agg{}
	for i, s := range t.spans[from:] {
		a := out[s.Name]
		if a == nil {
			a = &agg{counts: map[string]float64{}}
			out[s.Name] = a
		}
		a.n++
		a.dur += s.dur()
		a.self += s.dur() - child[from+i]
		for k, v := range s.Counts {
			a.counts[k] += v
		}
	}
	return out
}

// medianOf returns the median duration and count value of the spans
// named name over the whole run (set-up learn included).
func (t *tracer) medianOf(name, count string) (ms, c float64) {
	var ds, cs []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, float64(s.dur())/1e6)
			cs = append(cs, s.Counts[count])
		}
	}
	if len(ds) == 0 {
		return 0, 0
	}
	return median(ds), median(cs)
}

// div is a/b, or 0 when nothing was measured.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics fills every per-layer metric. A layer the workload leaves idle
// reports 0.
func (t *tracer) metrics(m map[string]metric, r *runner) {
	a := t.aggregate(t.tStart)
	get := func(name string) *agg {
		if x := a[name]; x != nil {
			return x
		}
		return &agg{counts: map[string]float64{}}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	cl, ex, sc := get("core.classify"), get("core.expand"), get("linkage.score")
	items := sc.counts["items"]
	m["core.classify.ms_per_item"] = metric{div(ms(cl.dur), float64(cl.n)), "ms"}
	m["core.classify.predictions_per_item"] = metric{div(cl.counts["predictions"], float64(cl.n)), "count"}
	m["core.expand.ms_per_item"] = metric{div(ms(ex.dur), float64(ex.n)), "ms"}
	m["core.expand.candidates_per_item"] = metric{div(ex.counts["candidates"], float64(ex.n)), "count"}
	m["core.expand.reduction_factor"] = metric{div(ex.counts["catalog"], ex.counts["candidates"]), "ratio"}
	m["core.expand.alloc_kb_per_item"] = metric{div(ex.counts["alloc_bytes"]/1024, float64(ex.n)), "KiB"}
	m["linkage.score.ms_per_item"] = metric{div(ms(sc.dur), items), "ms"}
	m["linkage.score.pairs_per_item"] = metric{div(sc.counts["pairs"], items), "count"}
	m["linkage.score.ns_per_pair"] = metric{div(float64(sc.dur), sc.counts["pairs"]), "ns"}
	m["linkage.score.pass_rate"] = metric{div(sc.counts["matches"], sc.counts["pairs"]), "ratio"}
	m["linkage.score.alloc_kb_per_item"] = metric{div(sc.counts["alloc_bytes"]/1024, items), "KiB"}

	learnMS, allocs := t.medianOf("core.learn", "allocs")
	_, rules := t.medianOf("core.learn", "rules")
	instMS, _ := t.medianOf("core.instances.build", "")
	buildMS, _ := t.medianOf("linkage.build", "")
	m["core.learn.ms"] = metric{learnMS, "ms"}
	m["core.learn.allocs"] = metric{allocs, "count"}
	m["core.learn.rules"] = metric{rules, "count"}
	m["core.instances.build_ms"] = metric{instMS, "ms"}
	m["linkage.build.ms"] = metric{buildMS, "ms"}

	sl, sb, sn := get("service.link"), get("service.bulk"), get("service.learn")
	pa, fw := get("linkage.patch"), get("store.fs.write")
	m["linkage.patch.ms_per_batch"] = metric{div(ms(pa.dur), float64(pa.n)), "ms"}
	m["service.link.self_ms_per_query"] = metric{div(ms(sl.self), float64(sl.n)), "ms"}
	m["service.bulk.ms_per_batch"] = metric{div(ms(sb.dur), float64(sb.n)), "ms"}
	m["service.learn.self_ms"] = metric{div(ms(sn.self), float64(sn.n)), "ms"}
	m["store.wal.bytes_per_item"] = metric{div(sb.counts["wal_bytes"], sb.counts["items"]), "bytes"}
	m["store.wal.appends_per_batch"] = metric{div(sb.counts["wal_appends"], float64(sb.n)), "count"}
	m["store.fs.write_ms_per_batch"] = metric{div(ms(fw.dur), float64(sb.n)), "ms"}

	var n, allocsU, bytesU, gcs, pause float64
	for _, s := range r.measured() {
		n++
		allocsU += float64(s.allocs)
		bytesU += float64(s.bytes)
		gcs += float64(s.gcs)
		pause += float64(s.pause)
	}
	m["runtime.allocs_per_op"] = metric{div(allocsU, n), "count"}
	m["runtime.alloc_mb_per_op"] = metric{div(bytesU/(1<<20), n), "MiB"}
	m["runtime.gc_cycles_per_op"] = metric{div(gcs, n), "count"}
	m["runtime.gc_pause_ms_per_op"] = metric{div(pause/1e6, n), "ms"}

	// Tracing overhead is defined on link queries, which take the same
	// path in both halves; a workload without them reports 0.
	var traced []float64
	for _, s := range r.samples[t.untraced:] {
		if s.kind == opLink {
			traced = append(traced, float64(s.dur)/1e6)
		}
	}
	if untraced := r.timed(opLink); len(traced) > 0 && len(untraced) > 0 {
		sort.Float64s(traced)
		p50 := percentile(untraced, 50)
		m["obs.trace_overhead_pct"] = metric{(percentile(traced, 50) - p50) / p50 * 100, "%"}
	} else {
		m["obs.trace_overhead_pct"] = metric{0, "%"}
	}
}

// dump writes every span to the work directory and prints self time per
// layer and per span name for the traced half.
func (t *tracer) dump(o options, log io.Writer) error {
	a := t.aggregate(t.tStart)
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	var roots time.Duration
	layers := map[string]time.Duration{}
	for _, n := range names {
		if strings.HasPrefix(n, "service.") {
			roots += a[n].dur
		}
		layer, _, _ := strings.Cut(n, ".")
		layers[layer] += a[n].self
	}
	fmt.Fprintf(log, "perfbench: traced half: self time per span (share of %.1f ms in service spans)\n", float64(roots)/1e6)
	for _, n := range names {
		fmt.Fprintf(log, "perfbench:   %-22s n=%-5d total %10.2f ms  self %10.2f ms  %5.1f%%\n",
			n, a[n].n, float64(a[n].dur)/1e6, float64(a[n].self)/1e6, 100*div(float64(a[n].self), float64(roots)))
	}
	for _, l := range []string{"service", "core", "linkage", "store"} {
		fmt.Fprintf(log, "perfbench:   layer %-8s self %10.2f ms  %5.1f%%\n", l, float64(layers[l])/1e6, 100*div(float64(layers[l]), float64(roots)))
	}
	path := filepath.Join(o.work, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": o.workload, "seed": o.seed, "traced_from": t.tStart, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(t.spans), path)
	return nil
}
