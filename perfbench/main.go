// Command perfbench is the repository's benchmark. It generates the
// paper corpus from a seed, drives the real service stack in process —
// HTTP handler, durable store, rule learner, link engine — from one
// closed-loop client, checks every answer, and prints one JSON result
// line. See README.md for the workloads, the metrics and how to read the
// trace.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload link|ingest|churn --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	work     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "link", "workload: link, ingest or churn")
	fs.Int64Var(&o.seed, "seed", 42, "seed of every request (the corpus is fixed at seed 42)")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed loop in seconds")
	fs.IntVar(&trace, "trace", 0, "1 replays the run through each layer and reports per-layer metrics")
	fs.StringVar(&o.scale, "scale", "paper", "corpus scale: paper, or tiny for tests")
	fs.StringVar(&o.work, "work", ".bench_build/work", "directory for stores and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1, -seconds positive")
		return 2
	}
	o.trace = trace == 1
	res, err := bench(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// sample is one timed request.
type sample struct {
	kind  opKind
	dur   time.Duration
	items int
	// allocs, bytes, gcs and pause are the process's runtime.MemStats
	// deltas across the request.
	allocs, bytes, gcs, pause uint64
}

// setups is how many set-ups a paper-scale run times for setup_s; the
// last one serves the run. A tiny corpus, used only by the tests, sets
// up once.
func setups(scale string) int {
	if scale == "tiny" {
		return 1
	}
	return 3
}

// bench runs one workload end to end and returns its result.
func bench(o options, log io.Writer) (*result, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	c, ds, err := newCorpus(o.scale, corpusSeed)
	if err != nil {
		return nil, err
	}
	sizes, err := spaceSizes(c, ds)
	if err != nil {
		return nil, err
	}
	wl, err := newWorkload(o.workload, c, sizes, o.seed)
	if err != nil {
		return nil, err
	}
	su := wl.seed()
	w := newWorld(su.ext, su.loc, su.train)
	corpusS := time.Since(t0).Seconds()
	// heap_mb is the live heap the service adds: this baseline holds the
	// benchmark's own corpus model, workload and world, but not the
	// generator's dataset, which is dead once the space sizes are read.
	baseMB := liveHeapMB()
	t0 = time.Now()
	fmt.Fprintf(log, "perfbench: workload %s, seed %d, %s corpus (%d external, %d catalog items, %d links), GOMAXPROCS %d, NumCPU %d, WAL fsync=never\n",
		o.workload, o.seed, o.scale, len(c.ext), len(c.loc), len(c.links), runtime.GOMAXPROCS(0), runtime.NumCPU())

	// Set-up: restore a fresh service several times and report the
	// median; the last one serves the run.
	var hs *harness
	n := setups(o.scale)
	setupS := make([]float64, 0, n)
	var tfs *timingFS
	for i := 0; i < n; i++ {
		seed := seedFor(c, su)
		if o.trace {
			tfs = newTimingFS()
		}
		runtime.GC()
		h, d, err := openService(storeDir(o.work, i), seed, fsOrNil(tfs))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < n-1 {
			if err := h.close(); err != nil {
				return nil, err
			}
			continue
		}
		hs = h
	}
	defer hs.close()

	setupsS := time.Since(t0).Seconds()
	t0 = time.Now()
	r := &runner{o: o, c: c, wl: wl, hs: hs, ck: newChecker(), w: w, log: log}
	if o.trace {
		if r.tr, err = newTracer(c, su, hs, tfs); err != nil {
			return nil, err
		}
	}
	if err := r.loop(); err != nil {
		return nil, err
	}

	fmt.Fprintf(log, "perfbench: wall time: corpus %.1fs, set-ups %.1fs, loop %.1fs\n", corpusS, setupsS, time.Since(t0).Seconds())
	heapMB := liveHeapMB() - baseMB
	st, err := hs.status()
	r.attempted++
	if err != nil {
		r.failed++
		r.ck.fail("%v", err)
	} else {
		r.ck.statusAnswer(r.w, st)
	}
	if r.ck.hashed < digestOps && wl.minOps()[opLink] > 0 {
		r.ck.fail("only %d link answers, the digest needs %d", r.ck.hashed, digestOps)
	}
	if r.ck.hashed > 0 && r.ck.f1() < minF1 {
		r.ck.fail("link_f1 %.4f below %.2f", r.ck.f1(), minF1)
	}

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	prim := r.timed(wl.primary())
	r.report(prim, setupS, heapMB)
	if o.trace {
		r.tr.metrics(res.Metrics, r)
		if err := r.tr.dump(o, log); err != nil {
			return nil, err
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["p50_ms"] = metric{percentile(prim, 50), "ms"}
		res.Metrics["p90_ms"] = metric{percentile(prim, 90), "ms"}
		res.Metrics["items_per_s"] = metric{r.itemsPerSecond(), "1/s"}
		res.Metrics["heap_mb"] = metric{heapMB, "MiB"}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.ck.fail("metric %s is %v", name, m.Value)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	for _, e := range r.ck.errs {
		fmt.Fprintf(log, "perfbench: CHECK FAILED: %s\n", e)
	}
	res.Correct = r.ck.ok() && r.failed == 0
	return res, nil
}

// runner drives one workload's closed loop.
type runner struct {
	o   options
	c   *corpus
	wl  workload
	hs  *harness
	ck  *checker
	w   *world
	tr  *tracer
	log io.Writer

	samples           []sample
	attempted, failed int
}

// warmupOps are issued untimed before the loop, so caches fill and lazy
// set-up finishes first. They are part of the checked op sequence.
const warmupOps = 4

// loop issues the workload's ops: a few untimed warm-up ops, a forced
// GC, then the timed loop until --seconds have passed and every op kind
// has its minimum sample count. A traced run times the first half of the
// loop untraced and replays the second half through each layer.
func (r *runner) loop() error {
	for i := 0; i < warmupOps; i++ {
		if _, err := r.step(false, false); err != nil {
			return err
		}
	}
	runtime.GC()
	half := time.Duration(r.o.seconds * float64(time.Second))
	if r.tr != nil {
		half /= 2
	}
	if err := r.phase(half, false); err != nil {
		return err
	}
	if r.tr == nil {
		return nil
	}
	r.tr.untraced = len(r.samples)
	if err := r.tr.catchUp(r.c, r.w); err != nil {
		return err
	}
	runtime.GC()
	return r.phase(half, true)
}

// phase runs timed ops for d (and until the minimum counts are met).
func (r *runner) phase(d time.Duration, traced bool) error {
	start := time.Now()
	counts := map[opKind]int{}
	for {
		done := time.Since(start) >= d
		for k, n := range r.wl.minOps() {
			if r.tr != nil {
				n = min(n, 10) // each half of a traced run
			}
			if k == opLink && r.ck.hashed < digestOps || counts[k] < n {
				done = false
			}
		}
		if done {
			return nil
		}
		s, err := r.step(true, traced)
		if err != nil {
			return err
		}
		counts[s.kind]++
	}
}

// step builds, sends and checks the next op. Only the request itself is
// inside the clock.
func (r *runner) step(timed, traced bool) (sample, error) {
	o, err := r.wl.next()
	if err != nil {
		return sample{}, err
	}
	if o.gcFirst {
		runtime.GC()
	}
	r.attempted++
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var code int
	var body []byte
	var rep bulkReport
	var span int
	t0 := time.Now()
	switch {
	case traced && o.kind == opWrite:
		span = r.tr.begin("service.bulk", -1)
		rep, err = r.tr.bulk(span, r.hs, o)
		code = 200
		if err != nil {
			code, body = 500, []byte(err.Error())
		}
	default:
		if traced {
			span = r.tr.begin("service."+o.kind.String(), -1)
		}
		code, body = r.hs.call("POST", o.path, o.body)
	}
	d := time.Since(t0)
	if traced {
		r.tr.end(span)
	}
	runtime.ReadMemStats(&after)
	s := sample{kind: o.kind, dur: d, items: o.items,
		allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
		gcs: uint64(after.NumGC - before.NumGC), pause: after.PauseTotalNs - before.PauseTotalNs}
	if code != 200 {
		r.failed++
		r.ck.fail("%s %s: %d %s", o.kind, o.path, code, body)
		return s, nil
	}
	switch o.kind {
	case opLink:
		res := r.ck.linkAnswer(o, r.w, r.c.truth, body)
		if traced {
			r.tr.link(span, o, res, r.ck)
		}
	case opWrite:
		if !traced {
			if err := json.Unmarshal(body, &rep); err != nil {
				r.ck.fail("write answer: %v", err)
			}
		}
		r.ck.writeAnswer(o, rep)
		r.w.apply(o)
		if traced {
			r.tr.rep.write(r.tr, span, o)
		}
	case opLearn:
		r.w.apply(o)
		r.ck.learnAnswer(r.w, body)
		if traced {
			if err := r.tr.learn(span, r.w, r.hs, r.ck); err != nil {
				return s, err
			}
		}
	}
	if r.tr != nil && !traced && o.kind == opWrite {
		r.tr.pending = append(r.tr.pending, o)
	}
	if timed {
		r.samples = append(r.samples, s)
	}
	return s, nil
}

// measured returns the timed ops the end-to-end figures come from: all
// of them, or in a traced run those of its untraced half.
func (r *runner) measured() []sample {
	if r.tr != nil {
		return r.samples[:r.tr.untraced]
	}
	return r.samples
}

// timed returns the sorted latencies in milliseconds of the measured ops
// of kind k.
func (r *runner) timed(k opKind) []float64 {
	var out []float64
	for _, s := range r.measured() {
		if s.kind == k {
			out = append(out, float64(s.dur)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// itemsPerSecond is the primary kind's items over the service time of
// every measured op, so the other kinds' time counts against them:
// learns on ingest, link queries on churn.
func (r *runner) itemsPerSecond() float64 {
	var items int
	var busy time.Duration
	for _, s := range r.measured() {
		busy += s.dur
		if s.kind == r.wl.primary() {
			items += s.items
		}
	}
	return float64(items) / busy.Seconds()
}

// report prints the run's figures, with sample counts and the exact
// work counters, to the log.
func (r *runner) report(prim, setupS []float64, heapMB float64) {
	fmt.Fprintf(r.log, "perfbench: setup_s median %.3f of %v\n", median(setupS), setupS)
	for k := opLink; k <= opLearn; k++ {
		ms := r.timed(k)
		if len(ms) == 0 {
			continue
		}
		var allocs, bytes, gcs, pause uint64
		n := 0
		for _, s := range r.measured() {
			if s.kind == k {
				allocs, bytes, gcs, pause = allocs+s.allocs, bytes+s.bytes, gcs+s.gcs, pause+s.pause
				n++
			}
		}
		fmt.Fprintf(r.log, "perfbench: %-5s n=%d p50 %.2f ms p90 %.2f ms; counts per op: %.0f allocs, %.2f MiB allocated, %.3f GC cycles, %.3f ms GC pause\n",
			k, len(ms), percentile(ms, 50), percentile(ms, 90),
			float64(allocs)/float64(n), float64(bytes)/float64(n)/(1<<20), float64(gcs)/float64(n), float64(pause)/float64(n)/1e6)
	}
	fmt.Fprintf(r.log, "perfbench: items_per_s %.1f, heap_mb %.1f, attempted %d, failed %d, error_rate %g\n",
		r.itemsPerSecond(), heapMB, r.attempted, r.failed, float64(r.failed)/float64(r.attempted))
	if r.ck.hashed > 0 {
		fmt.Fprintf(r.log, "perfbench: answer digest %s over %d link answers, link_f1 %.4f\n", r.ck.sum(), r.ck.hashed, r.ck.f1())
	}
}

// liveHeapMB forces a GC and returns HeapAlloc in MiB.
func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the p-th percentile of sorted xs (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// median returns the median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
