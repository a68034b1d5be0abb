package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	datalink "repro"
	"repro/internal/obs"
	"repro/internal/similarity"
)

// slowLinkService builds the corpus service with a deliberately slow
// default linker (every similarity call sleeps), the flight recorder
// tuned to a low slow threshold, and /debug/requests mounted. Link
// queries become deterministically slow; everything else stays fast.
func slowLinkService(t *testing.T, rec obs.RecorderOptions) *Service {
	t.Helper()
	return corpusServiceOpts(t, func(o *Options) {
		o.Recorder = rec
		o.DebugRequests = true
		o.DefaultLinker = datalink.LinkerConfig{
			Comparators: []datalink.Comparator{{
				ExternalProperty: datalink.NewIRI(pnProp),
				LocalProperty:    datalink.NewIRI(pnProp),
				Measure: similarity.Func{ID: "sleepy", F: func(a, b string) float64 {
					time.Sleep(2 * time.Millisecond)
					return datalink.Levenshtein.Similarity(a, b)
				}},
				Weight: 1,
			}},
			Threshold: 0.5,
			Workers:   1,
		}
	})
}

// TestDebugRequestsTailRetention is the PR's acceptance scenario: one
// deliberately slow link query, then a flood of 10k fast requests with
// concurrent /debug/requests and /metrics readers (under -race), and
// the slow request's stage-level trace is still retrievable.
func TestDebugRequestsTailRetention(t *testing.T) {
	s := slowLinkService(t, obs.RecorderOptions{
		Capacity:      64,
		SlowCapacity:  128,
		SlowThreshold: 25 * time.Millisecond,
		SampleRate:    0, // only outliers retained: the starkest case
	})
	h := s.Handler()
	if rec := call(t, h, "POST", "/v1/learn", learnBody(20), nil); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}

	// The deliberately slow request: one item against the sleepy
	// comparator is 40 local comparisons x 2ms >= 80ms, far over the
	// threshold.
	var linkResp linkResponse
	if rec := call(t, h, "POST", "/v1/link",
		linkRequest{Items: []string{"http://ex.org/e/r1"}, TopK: 1}, &linkResp); rec.Code != http.StatusOK {
		t.Fatalf("link: %d %s", rec.Code, rec.Body)
	}

	// Flood: 10k fast requests, plus concurrent /debug/requests and
	// /metrics readers racing the writers.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2500; i++ {
				call(t, h, "GET", "/healthz", nil, nil)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				call(t, h, "GET", "/debug/requests?n=10", nil, nil)
				call(t, h, "GET", "/metrics", nil, nil)
			}
		}()
	}
	wg.Wait()

	// The slow link request must have survived the flood, with its
	// stage breakdown intact, and be addressable by every filter.
	var resp debugRequestsResponse
	if rec := call(t, h, "GET", "/debug/requests?min_ms=25&path=/v1/link", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("debug/requests: %d %s", rec.Code, rec.Body)
	}
	if len(resp.Requests) != 1 {
		t.Fatalf("want exactly the slow link request, got %d: %+v", len(resp.Requests), resp.Requests)
	}
	slow := resp.Requests[0]
	if slow.Path != "/v1/link" || slow.Kind != "slow" || slow.Status != http.StatusOK {
		t.Fatalf("slow record mismatch: %+v", slow)
	}
	if slow.DurationMS < 25 {
		t.Fatalf("slow record under threshold: %v ms", slow.DurationMS)
	}
	if slow.ID == "" || slow.Client == "" {
		t.Fatalf("missing identity fields: %+v", slow)
	}
	stages := map[string]float64{}
	for _, st := range slow.Stages {
		stages[st.Stage] = st.Seconds
	}
	for _, want := range []string{"engine", "classify", "expand", "scoring"} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("stage %q missing from trace: %+v", want, slow.Stages)
		}
	}
	if stages["scoring"] < 0.025 {
		t.Fatalf("scoring stage should dominate the slow query: %+v", stages)
	}
	if resp.Stats.Seen < 10001 {
		t.Fatalf("recorder saw %d requests, want >= 10001", resp.Stats.Seen)
	}
	if resp.Config.SlowMS != 25 || resp.Config.SampleRate != 0 {
		t.Fatalf("config echo mismatch: %+v", resp.Config)
	}
}

// TestDebugRequestsErrorsAndFilters: rejected/errored requests are
// always kept with their rejection reason, and the status filters
// address them.
func TestDebugRequestsErrors(t *testing.T) {
	s := slowLinkService(t, obs.RecorderOptions{SlowThreshold: time.Hour})
	h := s.Handler()

	// A 400 (bad body) and a 404 (unknown route) — both error-kind.
	call(t, h, "POST", "/v1/learn", map[string]any{"bogus": true}, nil)
	call(t, h, "GET", "/nope", nil, nil)

	var resp debugRequestsResponse
	if rec := call(t, h, "GET", "/debug/requests?status=4xx", nil, &resp); rec.Code != http.StatusOK {
		t.Fatalf("debug/requests: %d %s", rec.Code, rec.Body)
	}
	if len(resp.Requests) != 2 {
		t.Fatalf("want both 4xx records, got %+v", resp.Requests)
	}
	for _, r := range resp.Requests {
		if r.Kind != "error" {
			t.Fatalf("kind = %q, want error: %+v", r.Kind, r)
		}
	}

	if rec := call(t, h, "GET", "/debug/requests?status=404", nil, &resp); rec.Code != http.StatusOK || len(resp.Requests) != 1 {
		t.Fatalf("status=404 filter: %d, %+v", rec.Code, resp.Requests)
	}
	if resp.Requests[0].Path != "/nope" {
		t.Fatalf("404 record: %+v", resp.Requests[0])
	}

	// Bad filter values are 400s (and themselves get recorded).
	if rec := call(t, h, "GET", "/debug/requests?min_ms=-1", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("min_ms=-1: %d", rec.Code)
	}
	if rec := call(t, h, "GET", "/debug/requests?n=zero", nil, nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("n=zero: %d", rec.Code)
	}
}

// TestDebugRequestsRejectionReason: middleware rejections carry their
// machine-readable reason into the recorder.
func TestDebugRequestsRejectionReason(t *testing.T) {
	s := corpusServiceOpts(t, func(o *Options) {
		o.DebugRequests = true
		o.Resilience = ResilienceOptions{APIKeys: []string{"secret"}, StrictAuth: true}
	})
	h := s.Handler()

	// One unauthorized request, then read the recorder with the key.
	rec := call(t, h, "GET", "/v1/status", nil, nil)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("expected 401, got %d", rec.Code)
	}

	var resp debugRequestsResponse
	r2 := httptest.NewRequest("GET", "/debug/requests?status=error", nil)
	r2.Header.Set("X-API-Key", "secret")
	w2 := httptest.NewRecorder()
	h.ServeHTTP(w2, r2)
	if w2.Code != http.StatusOK {
		t.Fatalf("debug/requests with key: %d %s", w2.Code, w2.Body)
	}
	if err := json.Unmarshal(w2.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Requests) != 1 || resp.Requests[0].Reason != reasonUnauthorized {
		t.Fatalf("want one unauthorized record, got %+v", resp.Requests)
	}
	if resp.Requests[0].Client != "anonymous" {
		t.Fatalf("client = %q, want anonymous", resp.Requests[0].Client)
	}

	// Unauthenticated access to the recorder itself is rejected.
	if rec := call(t, h, "GET", "/debug/requests", nil, nil); rec.Code != http.StatusUnauthorized {
		t.Fatalf("debug/requests without key: %d", rec.Code)
	}
}

// TestLearnDebugTimings: /v1/learn?debug=timings returns the per-stage
// breakdown — parity with /v1/link.
func TestLearnDebugTimings(t *testing.T) {
	h := corpusService(t).Handler()
	var resp learnResponse
	if rec := call(t, h, "POST", "/v1/learn?debug=timings", learnBody(20), &resp); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	stages := map[string]bool{}
	for _, st := range resp.Timings {
		stages[st.Stage] = true
		if st.Seconds < 0 {
			t.Fatalf("negative stage duration: %+v", st)
		}
	}
	for _, want := range []string{"learn", "publish"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from timings: %+v", want, resp.Timings)
		}
	}

	// Without the flag, no timings.
	var plain learnResponse
	if rec := call(t, h, "POST", "/v1/learn", learnBody(20), &plain); rec.Code != http.StatusOK {
		t.Fatalf("learn: %d %s", rec.Code, rec.Body)
	}
	if plain.Timings != nil {
		t.Fatalf("timings without debug flag: %+v", plain.Timings)
	}
}

// TestDebugRequestsNotMountedByDefault: without Options.DebugRequests
// the endpoint does not exist.
func TestDebugRequestsNotMounted(t *testing.T) {
	h := corpusService(t).Handler()
	if rec := call(t, h, "GET", "/debug/requests", nil, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("debug/requests on default service: %d", rec.Code)
	}
}

// TestBuildInfoAndRuntimeMetrics: every service scrape carries the
// build_info gauge, the go_* runtime series and the flight counters,
// lint-clean.
func TestBuildInfoAndRuntimeMetrics(t *testing.T) {
	s := corpusService(t)
	h := s.Handler()
	call(t, h, "GET", "/healthz", nil, nil)

	rec := call(t, h, "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	text := rec.Body.String()
	if errs := obs.Lint(text); errs != nil {
		t.Fatalf("lint errors: %v", errs)
	}
	for _, want := range []string{
		"linkrules_build_info{",
		"go_goroutines ",
		"go_heap_inuse_bytes ",
		"go_gc_cycles_total ",
		"go_gc_pause_seconds_bucket{",
		"go_sched_latency_seconds_bucket{",
		"go_process_start_time_seconds ",
		"linkrules_flight_seen_total ",
		"linkrules_flight_kept_total ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in scrape", want)
		}
	}
	bi := obs.Build()
	if !strings.Contains(text, fmt.Sprintf("go_version=%q", bi.GoVersion)) {
		t.Fatalf("build_info go_version %q missing", bi.GoVersion)
	}
}
