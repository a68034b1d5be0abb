package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sort"
	"strconv"

	datalink "repro"
)

// Output checks. Every answer the service gives in a run is checked
// against the benchmark's own model of the corpus; the first digestOps
// link answers are also hashed into the run's answer digest and scored
// for link quality against the generator's true links.

// digestOps is how many link answers the digest and link_f1 cover. A run
// always times at least this many link queries, so both are a function of
// the seed alone.
const digestOps = 48

// minF1 is the least top-1 F1 a run may show on held-out items. It sits
// well below every seed measured (see README.md), so only a broken answer
// path trips it.
const minF1 = 0.5

type matchJSON struct {
	Local string  `json:"local"`
	Score float64 `json:"score"`
}

type resultJSON struct {
	Item    string      `json:"item"`
	Matches []matchJSON `json:"matches"`
}

// checker accumulates the run's output checks.
type checker struct {
	errs    []string
	digest  hash.Hash
	hashed  int
	tp, fp  int
	queried int
}

func newChecker() *checker { return &checker{digest: sha256.New()} }

func (ck *checker) fail(format string, args ...any) {
	if len(ck.errs) < 20 {
		ck.errs = append(ck.errs, fmt.Sprintf(format, args...))
	}
}

// ok reports whether every check so far passed.
func (ck *checker) ok() bool { return len(ck.errs) == 0 }

// sum returns the answer digest.
func (ck *checker) sum() string { return hex.EncodeToString(ck.digest.Sum(nil)) }

// f1 is the top-1 F1 over the digested answers: an item's top answer is
// a true positive when it is the item's true link, a false positive
// otherwise; an item whose true link is not its top answer is missed.
func (ck *checker) f1() float64 {
	fn := ck.queried - ck.tp
	if ck.tp == 0 {
		return 0
	}
	return 2 * float64(ck.tp) / float64(2*ck.tp+ck.fp+fn)
}

// linkAnswer checks one link response against the query and the world
// the query ran on: one result per queried item, at most topK matches
// each, every score at or above the threshold, best first, every local a
// present catalog item, and every score equal to the oracle's. It returns
// the decoded results for callers that compare them further.
func (ck *checker) linkAnswer(o *op, w *world, truth map[string]string, body []byte) []resultJSON {
	var resp struct {
		Results []resultJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		ck.fail("link answer: %v", err)
		return nil
	}
	want := append([]string(nil), o.query...)
	sort.Strings(want)
	if len(resp.Results) != len(want) {
		ck.fail("link answer: %d results for %d items", len(resp.Results), len(want))
		return nil
	}
	cfg := datalink.DefaultLinkingConfig()
	for i, r := range resp.Results {
		if r.Item != want[i] {
			ck.fail("link answer: result %d is for %s, want %s", i, r.Item, want[i])
			continue
		}
		if len(r.Matches) > topK {
			ck.fail("link answer: %s has %d matches, top_k is %d", r.Item, len(r.Matches), topK)
		}
		seen := map[string]bool{}
		for j, m := range r.Matches {
			loc := w.loc[m.Local]
			switch {
			case seen[m.Local]:
				ck.fail("link answer: %s lists %s twice", r.Item, m.Local)
			case m.Score < cfg.Threshold:
				ck.fail("link answer: %s -> %s scores %v below the threshold", r.Item, m.Local, m.Score)
			case j > 0 && (m.Score > r.Matches[j-1].Score || m.Score == r.Matches[j-1].Score && m.Local < r.Matches[j-1].Local):
				ck.fail("link answer: %s matches out of order at %d", r.Item, j)
			case loc == nil:
				ck.fail("link answer: %s -> %s is not a present catalog item", r.Item, m.Local)
			default:
				seen[m.Local] = true
				if want := oracleScore(w.ext[r.Item], loc); math.Abs(want-m.Score) > 1e-9 {
					ck.fail("link answer: %s -> %s scores %v, oracle says %v", r.Item, m.Local, m.Score, want)
				}
			}
		}
	}
	if ck.hashed < digestOps {
		ck.hashed++
		for _, r := range resp.Results {
			ck.queried++
			if len(r.Matches) > 0 {
				if r.Matches[0].Local == truth[r.Item] {
					ck.tp++
				} else {
					ck.fp++
				}
			}
			fmt.Fprintf(ck.digest, "%s\n", r.Item)
			for _, m := range r.Matches {
				fmt.Fprintf(ck.digest, "\t%s\t%s\n", m.Local, strconv.FormatFloat(m.Score, 'g', -1, 64))
			}
		}
	}
	return resp.Results
}

// oracleScore is the default linker's score computed from the
// benchmark's own item descriptions: per comparator the best similarity
// over value pairs, weighted, over the total weight.
func oracleScore(ext, loc *item) float64 {
	if ext == nil || loc == nil {
		return -1
	}
	cfg := datalink.DefaultLinkingConfig()
	num, total := 0.0, 0.0
	for _, c := range cfg.Comparators {
		total += c.Weight
		best := 0.0
		for _, ev := range ext.Props[c.ExternalProperty.Value] {
			for _, lv := range loc.Props[c.LocalProperty.Value] {
				if s := c.Measure.Similarity(ev, lv); s > best {
					best = s
				}
			}
		}
		num += c.Weight * best
	}
	if total == 0 {
		return 0
	}
	return num / total
}

// bulkReport is the part of a bulk ingest response the checks read.
type bulkReport struct {
	Upserted int `json:"upserted"`
	Removed  int `json:"removed"`
	Batches  int `json:"batches"`
	Errors   int `json:"errors"`
}

// writeAnswer checks that a commit applied every line as one batch.
func (ck *checker) writeAnswer(o *op, rep bulkReport) {
	if rep.Upserted != len(o.upserts) || rep.Removed != len(o.removes) || rep.Errors != 0 || rep.Batches != 1 {
		ck.fail("write answer: %+v for %d upserts and %d removes", rep, len(o.upserts), len(o.removes))
	}
}

// learnAnswer checks a learn response against the expected link count.
func (ck *checker) learnAnswer(w *world, body []byte) {
	var resp struct {
		TrainingLinks int `json:"training_links"`
		Rules         int `json:"rules"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		ck.fail("learn answer: %v", err)
		return
	}
	if resp.TrainingLinks != len(w.links) || resp.Rules == 0 {
		ck.fail("learn answer: %d links and %d rules, want %d links and some rules", resp.TrainingLinks, resp.Rules, len(w.links))
	}
}

// statusAnswer checks the corpus and training-set sizes the service
// reports after the loop against the benchmark's model.
func (ck *checker) statusAnswer(w *world, st statusJSON) {
	if st.ExternalTriples != w.extTriples || st.LocalTriples != w.locTrips || st.TrainingLinks != len(w.links) {
		ck.fail("status: external %d local %d links %d triples/links, want %d %d %d",
			st.ExternalTriples, st.LocalTriples, st.TrainingLinks, w.extTriples, w.locTrips, len(w.links))
	}
}
