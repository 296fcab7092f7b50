package core

import (
	"slices"
	"sort"

	"github.com/audb/audb/internal/types"
)

// overlapBlock is the number of consecutive index entries that share one
// max-Hi summary.
const overlapBlock = 32

// overlapIndex answers interval-overlap probes over a set of rows of one
// relation, keyed by the [Lo, Hi] of one column: the sort-and-sweep that
// replaces pairwise enumeration in set difference and in the join's
// uncertain quadrants. Entries are sorted by Lo and cut into blocks of
// overlapBlock. A probe for [lo, hi] binary-searches the first entry whose
// Lo exceeds hi and the first block whose running max-Hi reaches lo; only
// the blocks between them are scanned, and each is skipped whole if its
// own max-Hi is below lo.
type overlapIndex struct {
	ents  []overlapEntry
	maxHi []types.Value // maxHi[b]: the largest Hi in block b
	reach []types.Value // reach[b]: the largest Hi in blocks 0..b
}

type overlapEntry struct {
	lo, hi types.Value
	row    int
}

// newOverlapIndex indexes the given rows of r on column col.
func newOverlapIndex(r *Relation, rows []int, col int) *overlapIndex {
	ents := make([]overlapEntry, len(rows))
	for k, i := range rows {
		v := r.Tuples[i].Vals[col]
		ents[k] = overlapEntry{lo: v.Lo, hi: v.Hi, row: i}
	}
	slices.SortFunc(ents, func(a, b overlapEntry) int { return types.Compare(a.lo, b.lo) })
	nb := (len(ents) + overlapBlock - 1) / overlapBlock
	x := &overlapIndex{ents: ents, maxHi: make([]types.Value, nb), reach: make([]types.Value, nb)}
	for b := 0; b < nb; b++ {
		blk := ents[b*overlapBlock : min((b+1)*overlapBlock, len(ents))]
		m := blk[0].hi
		for _, e := range blk[1:] {
			m = types.Max(m, e.hi)
		}
		x.maxHi[b], x.reach[b] = m, m
		if b > 0 {
			x.reach[b] = types.Max(x.reach[b-1], m)
		}
	}
	return x
}

// probe appends to dst, in ascending row order, exactly the indexed rows
// whose range overlaps [lo, hi]: those with Lo <= hi and Hi >= lo, the
// per-attribute test of rangeval.V.Overlaps.
func (x *overlapIndex) probe(lo, hi types.Value, dst []int) []int {
	end := sort.Search(len(x.ents), func(k int) bool { return types.Less(hi, x.ents[k].lo) })
	first := sort.Search(len(x.reach), func(b int) bool { return !types.Less(x.reach[b], lo) })
	start := len(dst)
	for b := first; b*overlapBlock < end; b++ {
		if types.Less(x.maxHi[b], lo) {
			continue
		}
		for _, e := range x.ents[b*overlapBlock : min((b+1)*overlapBlock, end)] {
			if !types.Less(e.hi, lo) {
				dst = append(dst, e.row)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}
