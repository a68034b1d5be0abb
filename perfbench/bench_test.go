package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The benchmark's own tests run every workload on the generator's small
// corpus with one set-up and a short loop.

func runTiny(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, log bytes.Buffer
	base := []string{"--scale", "tiny", "--seconds", "0.2", "--work", t.TempDir()}
	if code := run(append(base, args...), &out, &log); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, log.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res, log.String()
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) == 0 {
		t.Fatal("no workloads in BENCHMARK.json")
	}
	for _, w := range s.Workloads {
		for trace, want := range map[string][]specMetric{"0": s.EndToEnd, "1": s.PerLayer} {
			res, log := runTiny(t, "--workload", w.Name, "--seed", "3", "--trace", trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, failed %d of %d\n%s", w.Name, trace, res.Correct, res.Failed, res.Attempted, log)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

var digestRE = regexp.MustCompile(`answer digest ([0-9a-f]{64})`)

func TestDigestIsAFunctionOfTheSeed(t *testing.T) {
	digest := func(workload, seed string) string {
		_, log := runTiny(t, "--workload", workload, "--seed", seed)
		m := digestRE.FindStringSubmatch(log)
		if m == nil {
			t.Fatalf("%s seed %s: no digest in\n%s", workload, seed, log)
		}
		return m[1]
	}
	for _, w := range []string{"link", "churn"} {
		a, b, c := digest(w, "5"), digest(w, "5"), digest(w, "6")
		if a != b {
			t.Errorf("%s: seed 5 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 5 and 6 gave the same digest %s", w, a)
		}
	}
}

func TestTamperedAnswerFailsTheCheck(t *testing.T) {
	c, ds, err := newCorpus("tiny", corpusSeed)
	if err != nil {
		t.Fatal(err)
	}
	sizes, err := spaceSizes(c, ds)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := newWorkload("link", c, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	su := wl.seed()
	hs, _, err := openService(storeDir(t.TempDir(), 0), seedFor(c, su), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.close()
	w := newWorld(su.ext, su.loc, su.train)

	// Find a real answer with at least two matches on one item.
	var o *op
	var resp struct {
		Results []resultJSON `json:"results"`
	}
	var at int
	for tries := 0; o == nil && tries < 50; tries++ {
		next, err := wl.next()
		if err != nil {
			t.Fatal(err)
		}
		code, body := hs.call("POST", next.path, next.body)
		if code != 200 {
			t.Fatalf("link: %d %s", code, body)
		}
		ck := newChecker()
		if ck.linkAnswer(next, w, c.truth, body); !ck.ok() {
			t.Fatalf("untampered answer fails: %v", ck.errs)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for i, r := range resp.Results {
			if len(r.Matches) >= 2 {
				o, at = next, i
				break
			}
		}
	}
	if o == nil {
		t.Fatal("no answer with two matches in 50 queries")
	}

	tamper := map[string]func(r *resultJSON){
		"score raised":   func(r *resultJSON) { r.Matches[0].Score += 0.01 },
		"local swapped":  func(r *resultJSON) { r.Matches[0].Local = r.Matches[1].Local },
		"order reversed": func(r *resultJSON) { r.Matches[0], r.Matches[1] = r.Matches[1], r.Matches[0] },
		"item renamed":   func(r *resultJSON) { r.Item = "http://perfbench.invalid/nothing" },
	}
	for name, f := range tamper {
		var copied struct {
			Results []resultJSON `json:"results"`
		}
		raw, _ := json.Marshal(resp)
		if err := json.Unmarshal(raw, &copied); err != nil {
			t.Fatal(err)
		}
		f(&copied.Results[at])
		body, _ := json.Marshal(copied)
		ck := newChecker()
		ck.linkAnswer(o, w, c.truth, body)
		if ck.ok() {
			t.Errorf("%s: tampered answer passes the check", name)
		}
	}
}
