package blocking

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/par"
	"repro/internal/similarity"
)

// SortedNeighborhood implements the sorted-neighbourhood method: all
// records (both sources) are sorted by a sorting key and a fixed-size
// window slides over the sorted list; cross-source records co-resident in
// a window become candidates.
type SortedNeighborhood struct {
	// Window is the sliding window size (number of records); values < 2
	// are treated as 2 (a window of 1 can never pair anything).
	Window int
	// Key derives the sorting key; nil uses the record key lower-cased.
	Key KeyFunc
	// Workers fans the per-record key derivation out across goroutines;
	// 0 means all cores, 1 forces serial. The candidate set is identical
	// for every worker count (the merged sort stays sequential).
	Workers int
}

// sortedEntry tags each record with its source for the merged sort.
type sortedEntry struct {
	id       string
	key      string
	external bool
}

func mergedSorted(external, local []Record, key KeyFunc, workers int) []sortedEntry {
	if key == nil {
		key = func(s string) string { return strings.ToLower(strings.TrimSpace(s)) }
	}
	entryFor := func(ext bool) func(Record) (sortedEntry, bool) {
		return func(r Record) (sortedEntry, bool) {
			return sortedEntry{id: r.ID, key: key(r.Key), external: ext}, true
		}
	}
	ctx := context.Background()
	extEntries, _ := par.MapChunks(ctx, workers, 0, external, entryFor(true))
	locEntries, _ := par.MapChunks(ctx, workers, 0, local, entryFor(false))
	entries := make([]sortedEntry, 0, len(external)+len(local))
	entries = append(entries, extEntries...)
	entries = append(entries, locEntries...)
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		// Stable tie-break: externals before locals, then by id.
		if entries[i].external != entries[j].external {
			return entries[i].external
		}
		return entries[i].id < entries[j].id
	})
	return entries
}

// crossPair orients two window-mates as an (external, local) pair,
// reporting false for same-source mates.
func crossPair(a, b sortedEntry) (Pair, bool) {
	switch {
	case a.external && !b.external:
		return Pair{A: a.id, B: b.id}, true
	case !a.external && b.external:
		return Pair{A: b.id, B: a.id}, true
	default:
		return Pair{}, false
	}
}

// Pairs implements Method: the window slides over the merged sorted list
// and every cross-source pair of window-mates becomes a candidate.
func (sn SortedNeighborhood) Pairs(external, local []Record) []Pair {
	w := sn.Window
	if w < 2 {
		w = 2
	}
	entries := mergedSorted(external, local, sn.Key, sn.Workers)
	ps := pairSet{}
	for i := range entries {
		hi := i + w
		if hi > len(entries) {
			hi = len(entries)
		}
		for j := i + 1; j < hi; j++ {
			if p, ok := crossPair(entries[i], entries[j]); ok {
				ps[p] = struct{}{}
			}
		}
	}
	return ps.slice()
}

// Name implements Method.
func (sn SortedNeighborhood) Name() string {
	w := sn.Window
	if w < 2 {
		w = 2
	}
	return fmt.Sprintf("sorted-neighborhood(w=%d)", w)
}

// AdaptiveSortedNeighborhood grows blocks instead of sliding a fixed
// window (Yan et al. 2007): consecutive sorted records stay in the same
// block while their keys remain similar; a similarity drop below the
// threshold starts a new block. Candidates are cross-source pairs within
// each block.
type AdaptiveSortedNeighborhood struct {
	// Threshold is the key-similarity boundary in [0,1]; 0 means 0.8.
	Threshold float64
	// MaxBlock caps block size as a safety net against degenerate key
	// distributions; 0 means 64.
	MaxBlock int
	// Key derives the sorting key; nil uses the record key lower-cased.
	Key KeyFunc
	// Sim scores adjacent keys; nil means Jaro-Winkler.
	Sim similarity.Measure
	// Workers fans the per-record key derivation out across goroutines;
	// 0 means all cores, 1 forces serial.
	Workers int
}

// Pairs implements Method: blocks are disjoint spans of the sorted list,
// and every cross-source pair within a block becomes a candidate.
func (asn AdaptiveSortedNeighborhood) Pairs(external, local []Record) []Pair {
	threshold := asn.Threshold
	if threshold == 0 {
		threshold = 0.8
	}
	maxBlock := asn.MaxBlock
	if maxBlock == 0 {
		maxBlock = 64
	}
	sim := asn.Sim
	if sim == nil {
		sim = similarity.JaroWinkler{}
	}
	entries := mergedSorted(external, local, asn.Key, asn.Workers)
	ps := pairSet{}
	emit := func(block []sortedEntry) {
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				if p, ok := crossPair(block[i], block[j]); ok {
					ps[p] = struct{}{}
				}
			}
		}
	}
	var block []sortedEntry
	for i, e := range entries {
		if len(block) > 0 && (len(block) >= maxBlock || sim.Similarity(entries[i-1].key, e.key) < threshold) {
			emit(block)
			block = block[:0]
		}
		block = append(block, e)
	}
	emit(block)
	return ps.slice()
}

// Name implements Method.
func (asn AdaptiveSortedNeighborhood) Name() string {
	threshold := asn.Threshold
	if threshold == 0 {
		threshold = 0.8
	}
	return fmt.Sprintf("adaptive-sn(t=%.2f)", threshold)
}
