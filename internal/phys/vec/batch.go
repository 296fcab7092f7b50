// Package vec defines the columnar batch format of the pipelined
// executor: struct-of-arrays batches that carry the stored tables'
// rangeval.Col columns (one slice per column, flat when the source column
// is certain, triples otherwise) and flat-or-dense multiplicities straight
// out of base-table storage, plus a selection vector so selection marks
// survivors instead of copying them.
//
// A Batch has two representations:
//
//   - Row batches (Columnar == false) wrap a []core.Tuple slice — the
//     format of everything a pipeline breaker or top-k/limit re-emits,
//     and of scans over a dense relation (never a registered table).
//     Appending the Tuple structs is a copy; attribute ranges stay
//     shared and immutable.
//   - Columnar batches (Columnar == true) hold N physical rows as
//     rangeval.Col column views plus one multiplicity per row (MFlat
//     when every multiplicity is certain, MDense otherwise), with Sel
//     selecting the live subset.
//
// Either way a batch is valid only until the producer's next Next or
// Close call. Consumers that retain rows must copy them: Tuple-struct
// appends for row batches, AppendTuples or AppendRow gathers for columnar
// ones.
package vec

import (
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
)

// Batch is one unit of data flow between pipelined operators.
type Batch struct {
	// Rows is the row representation (nil when Columnar).
	Rows []core.Tuple

	// Columnar selects the representation; the fields below are
	// meaningful only when it is set.
	Columnar bool
	// Cols holds one column view per attribute, each of length N. The
	// views alias base-table storage or an operator's reused output
	// buffers — read-only, per the rangeval.Col contract.
	Cols []rangeval.Col
	// MFlat/MDense hold the per-physical-row multiplicities; exactly one
	// is non-nil (MFlat m means the certain triple (m,m,m)).
	MFlat  []int64
	MDense []core.Mult
	// N is the physical row count.
	N int
	// Sel is the selection vector: the ascending physical indexes of the
	// live rows. nil means every physical row is live.
	Sel []int
}

// SetRows resets b to the row representation over rows (aliased, not
// copied).
func (b *Batch) SetRows(rows []core.Tuple) {
	b.Rows = rows
	b.Columnar = false
	b.Cols = b.Cols[:0]
	b.MFlat, b.MDense = nil, nil
	b.N, b.Sel = 0, nil
}

// SetSparseSpan resets b to a columnar view of rows [lo, hi) of sparse
// storage (as returned by core.Relation.SparseView), sharing every slice:
// the zero-densification scan. b's column slice is reused across calls.
func (b *Batch) SetSparseSpan(cols []rangeval.Col, mflat []int64, mdense []core.Mult, lo, hi int) {
	b.Rows = nil
	b.Columnar = true
	if cap(b.Cols) < len(cols) {
		b.Cols = make([]rangeval.Col, len(cols))
	}
	b.Cols = b.Cols[:len(cols)]
	for c := range cols {
		b.Cols[c] = cols[c].Slice(lo, hi)
	}
	if mflat != nil {
		b.MFlat, b.MDense = mflat[lo:hi], nil
	} else {
		b.MFlat, b.MDense = nil, mdense[lo:hi]
	}
	b.N = hi - lo
	b.Sel = nil
}

// Len returns the live row count.
func (b *Batch) Len() int {
	if !b.Columnar {
		return len(b.Rows)
	}
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.N
}

// EachLive calls fn with the physical index of every live row of a
// columnar batch, in ascending order, and stops at the first error.
func (b *Batch) EachLive(fn func(i int) error) error {
	if b.Sel != nil {
		for _, i := range b.Sel {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < b.N; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// MultAt returns physical row i's multiplicity triple (for a row batch, i
// indexes Rows).
func (b *Batch) MultAt(i int) core.Mult {
	if !b.Columnar {
		return b.Rows[i].M
	}
	if b.MFlat != nil {
		m := b.MFlat[i]
		return core.Mult{Lo: m, SG: m, Hi: m}
	}
	return b.MDense[i]
}

// AppendRow gathers physical row i's attribute triples onto dst. The
// result shares only immutable value internals with the batch, so it may
// be retained.
func (b *Batch) AppendRow(dst rangeval.Tuple, i int) rangeval.Tuple {
	for _, c := range b.Cols {
		dst = append(dst, c.At(i))
	}
	return dst
}

// AppendRowKey appends physical row i's injective triple-tuple encoding
// to buf — byte-identical to Tuple.Vals.AppendKey on the densified row,
// so probe maps may mix keys from both representations.
func (b *Batch) AppendRowKey(buf []byte, i int) []byte {
	for _, c := range b.Cols {
		buf = c.AppendRowKey(buf, i)
	}
	return buf
}

// AppendTuples densifies the live rows onto dst — the boundary crossing
// into row-at-a-time consumers (pipeline breakers, the exchange operator,
// the final drain). Row batches append their Tuple structs unchanged;
// columnar batches materialize fresh tuples carved from one arena, so the
// result satisfies the retention contract either way.
func (b *Batch) AppendTuples(dst []core.Tuple) []core.Tuple {
	if !b.Columnar {
		return append(dst, b.Rows...)
	}
	live := b.Len()
	if live == 0 {
		return dst
	}
	arity := len(b.Cols)
	arena := make(rangeval.Tuple, 0, live*arity)
	if b.Sel != nil {
		for _, i := range b.Sel {
			start := len(arena)
			arena = b.AppendRow(arena, i)
			dst = append(dst, core.Tuple{Vals: arena[start:len(arena):len(arena)], M: b.MultAt(i)})
		}
		return dst
	}
	for i := 0; i < b.N; i++ {
		start := len(arena)
		arena = b.AppendRow(arena, i)
		dst = append(dst, core.Tuple{Vals: arena[start:len(arena):len(arena)], M: b.MultAt(i)})
	}
	return dst
}
