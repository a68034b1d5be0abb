package blocking

import (
	"fmt"
	"strings"
)

// KeyFunc derives a blocking key from a record key value. An empty
// derived key places the record in no block (it generates no candidates),
// matching the usual treatment of missing values.
type KeyFunc func(string) string

// PrefixKey returns a KeyFunc taking the first n runes, lower-cased —
// the paper's related-work example ("persons that share the same first
// five characters of their last name belong to the same block").
func PrefixKey(n int) KeyFunc {
	return func(s string) string {
		s = strings.ToLower(strings.TrimSpace(s))
		runes := []rune(s)
		if len(runes) > n {
			runes = runes[:n]
		}
		return string(runes)
	}
}

// Standard is classical blocking: records sharing the same derived key
// form a block, and candidates are the cross-source pairs within each
// block.
type Standard struct {
	// Key derives the block key; nil means PrefixKey(5).
	Key KeyFunc
	// Label qualifies Name(), e.g. "prefix5".
	Label string
}

// Pairs implements Method: the local side is indexed into blocks, then
// each external record is paired with every local record of its block.
func (s Standard) Pairs(external, local []Record) []Pair {
	key := s.Key
	if key == nil {
		key = PrefixKey(5)
	}
	blocks := map[string][]string{}
	for _, r := range local {
		k := key(r.Key)
		if k == "" {
			continue
		}
		blocks[k] = append(blocks[k], r.ID)
	}
	ps := pairSet{}
	for _, e := range external {
		k := key(e.Key)
		if k == "" {
			continue
		}
		for _, lid := range blocks[k] {
			ps.add(e.ID, lid)
		}
	}
	return ps.slice()
}

// Name implements Method.
func (s Standard) Name() string {
	if s.Label != "" {
		return "standard(" + s.Label + ")"
	}
	return "standard(prefix5)"
}

// String renders metrics compactly for logs.
func (m Metrics) String() string {
	return fmt.Sprintf("candidates=%d rr=%.4f pc=%.4f pq=%.4f",
		m.Candidates, m.ReductionRatio(), m.PairsCompleteness(), m.PairsQuality())
}
