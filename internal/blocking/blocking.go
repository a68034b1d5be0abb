// Package blocking implements the classical comparison-reduction baselines
// the paper's related-work section cites: standard key blocking (Jaro),
// sorted neighbourhood (Hernández/Stolfo, adaptive per Yan et al.) and
// bi-gram indexing (Baxter/Christen/Churches), plus the naive cartesian
// bound and the quality metrics used to compare them (reduction ratio,
// pairs completeness, pairs quality).
//
// All methods operate on two record sets — external (left) and local
// (right) — and emit cross-source candidate pairs only, matching the
// paper's setting of integrating an external source into a catalog.
package blocking

import "sort"

// Record is one data item presented to a blocking method: an opaque
// identifier plus the value of the blocking key attribute.
type Record struct {
	ID  string
	Key string
}

// Pair is a candidate comparison between an external record (A) and a
// local record (B).
type Pair struct {
	A string
	B string
}

// Method generates candidate pairs between two record sets.
type Method interface {
	// Pairs returns the cross-source candidate pairs, deduplicated. Order
	// is unspecified.
	Pairs(external, local []Record) []Pair
	// Name identifies the method configuration, for reports.
	Name() string
}

// Cartesian pairs every external record with every local record: the
// |SE| × |SL| upper bound the paper starts from.
type Cartesian struct{}

// Pairs implements Method.
func (Cartesian) Pairs(external, local []Record) []Pair {
	out := make([]Pair, 0, len(external)*len(local))
	for _, e := range external {
		for _, l := range local {
			out = append(out, Pair{A: e.ID, B: l.ID})
		}
	}
	return out
}

// Name implements Method.
func (Cartesian) Name() string { return "cartesian" }

// pairSet accumulates deduplicated pairs.
type pairSet map[Pair]struct{}

func (ps pairSet) add(a, b string) { ps[Pair{A: a, B: b}] = struct{}{} }

func (ps pairSet) slice() []Pair {
	out := make([]Pair, 0, len(ps))
	for p := range ps {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Metrics summarizes the quality of a candidate set against the true
// match set, per the record-linkage blocking literature.
type Metrics struct {
	// Candidates is the number of generated candidate pairs.
	Candidates int
	// TotalSpace is the cartesian bound |external| × |local|.
	TotalSpace int
	// TrueMatches is the number of ground-truth matched pairs.
	TrueMatches int
	// CoveredMatches is the number of true matches present in the
	// candidate set.
	CoveredMatches int
}

// ReductionRatio is 1 - candidates/totalSpace: the fraction of the naive
// space the method avoided. Higher is better.
func (m Metrics) ReductionRatio() float64 {
	if m.TotalSpace == 0 {
		return 0
	}
	return 1 - float64(m.Candidates)/float64(m.TotalSpace)
}

// PairsCompleteness is coveredMatches/trueMatches: the fraction of real
// matches the candidate set retains. Higher is better.
func (m Metrics) PairsCompleteness() float64 {
	if m.TrueMatches == 0 {
		return 0
	}
	return float64(m.CoveredMatches) / float64(m.TrueMatches)
}

// PairsQuality is coveredMatches/candidates: the density of real matches
// among candidates. Higher is better.
func (m Metrics) PairsQuality() float64 {
	if m.Candidates == 0 {
		return 0
	}
	return float64(m.CoveredMatches) / float64(m.Candidates)
}

// Evaluate runs the method and scores its candidate set against truth,
// the set of real (external, local) matches.
func Evaluate(m Method, external, local []Record, truth []Pair) Metrics {
	cands := m.Pairs(external, local)
	inCands := make(map[Pair]struct{}, len(cands))
	for _, p := range cands {
		inCands[p] = struct{}{}
	}
	covered := 0
	for _, tp := range truth {
		if _, ok := inCands[tp]; ok {
			covered++
		}
	}
	return Metrics{
		Candidates:     len(inCands),
		TotalSpace:     len(external) * len(local),
		TrueMatches:    len(truth),
		CoveredMatches: covered,
	}
}
