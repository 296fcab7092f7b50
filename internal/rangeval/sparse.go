package rangeval

import (
	"slices"

	"github.com/audb/audb/internal/types"
)

// Sparse column storage: the vertical-decomposition idea of U-relations
// applied to the range-annotated domain. A column whose every row is
// certain ([v/v/v]) stores one flat value per row instead of a triple —
// one third of the memory and no bound arithmetic to widen — while a
// column with any uncertain row keeps the dense triple layout. The
// ColBuilder starts flat and promotes to dense the moment it sees an
// uncertain value, backfilling the rows appended so far.
//
// Col's fields are exported so hot loops in internal/core can read them
// without a call per value, but *writing* them (composite literals, field
// or element assignment, taking a field address) outside this package is
// forbidden and enforced by the audblint boundsctor rule: the only way
// into sparse form is a ColBuilder, the only ways out are At/Build. That
// keeps the representation invariants (exactly one of Flat/Dense set,
// Nulls consistent with Flat) in one package.

// Col is one column of a sparse relation: either a flat slice of certain
// values or a dense slice of range triples, never both.
type Col struct {
	// Flat holds the per-row values of a column whose every row is
	// certain; the range value of row i is [Flat[i]/Flat[i]/Flat[i]].
	// nil when the column is dense. Read-only outside rangeval.
	Flat []types.Value
	// Dense holds the per-row triples of a column with at least one
	// uncertain row. nil when the column is flat. Read-only outside
	// rangeval.
	Dense []V
	// Nulls counts the null values in a flat column (a certain null is a
	// legal certain value, but it still disqualifies the null-sensitive
	// certain-only predicate fast path). Always 0 for dense columns.
	Nulls int
}

// Len returns the number of rows in the column.
func (c Col) Len() int {
	if c.Flat != nil {
		return len(c.Flat)
	}
	return len(c.Dense)
}

// IsFlat reports whether the column stores flat certain values.
func (c Col) IsFlat() bool { return c.Dense == nil }

// HasNulls reports whether a flat column contains null values.
func (c Col) HasNulls() bool { return c.Nulls > 0 }

// At returns row i as a range value, expanding flat values to [v/v/v].
func (c Col) At(i int) V {
	if c.Flat != nil {
		return Certain(c.Flat[i])
	}
	return c.Dense[i]
}

// Ref returns row i for reading in place: a dense column's stored triple,
// or scratch set to [v/v/v] for a flat column. Columns are immutable once
// built, so nothing may be written through it.
func (c *Col) Ref(i int, scratch *V) *V {
	if c.Flat != nil {
		*scratch = Certain(c.Flat[i])
		return scratch
	}
	return &c.Dense[i]
}

// Slice returns the column restricted to rows [lo, hi), sharing storage —
// the zero-copy view the pipelined executor's columnar batches are built
// from. A flat slice keeps the whole column's null count: a null-free
// column has null-free spans (the case the fast paths gate on), while a
// column with nulls stays conservatively marked.
func (c Col) Slice(lo, hi int) Col {
	if c.Flat != nil {
		return Col{Flat: c.Flat[lo:hi], Nulls: c.Nulls}
	}
	return Col{Dense: c.Dense[lo:hi]}
}

// AppendRowKey appends row i's injective triple encoding to buf —
// byte-identical to Tuple.AppendKey of the expanded [v/v/v] triple, so
// keys built from columns and keys built from dense tuples probe the same
// maps interchangeably.
func (c Col) AppendRowKey(buf []byte, i int) []byte {
	if c.Flat != nil {
		v := c.Flat[i]
		buf = v.AppendKey(buf)
		buf = v.AppendKey(buf)
		return v.AppendKey(buf)
	}
	d := c.Dense[i]
	buf = d.Lo.AppendKey(buf)
	buf = d.SG.AppendKey(buf)
	return d.Hi.AppendKey(buf)
}

// ColFromFlat returns a flat column aliasing vals, counting its nulls.
// The caller must not mutate vals while the column is in use; the
// pipelined executor's vectorized projection builds its per-batch output
// columns through here (the batch contract — valid until the next Next —
// bounds the aliasing).
func ColFromFlat(vals []types.Value) Col {
	nulls := 0
	for _, v := range vals {
		if v.IsNull() {
			nulls++
		}
	}
	return Col{Flat: vals, Nulls: nulls}
}

// ColFromDense returns a dense column aliasing d, under the same
// no-mutation contract as ColFromFlat. Every element of d is a V built by
// this package's constructors, so the lb ≤ sg ≤ ub invariant holds by
// construction.
func ColFromDense(d []V) Col { return Col{Dense: d} }

// ColBuilder accumulates one column row by row, keeping the flat layout
// for as long as every appended value is certain. The zero value is an
// empty builder.
type ColBuilder struct {
	flat  []types.Value
	dense []V
	nulls int
}

// Grow reserves capacity for n additional rows. The storage grows
// geometrically, as append grows it, so reserving batch by batch stays
// linear; on an empty builder it reserves n rows, rounded up only to the
// allocator's size class.
func (b *ColBuilder) Grow(n int) {
	if b.dense != nil {
		b.dense = slices.Grow(b.dense, n)
		return
	}
	b.flat = slices.Grow(b.flat, n)
}

// Append adds one row. The first uncertain value promotes the column to
// the dense layout, expanding every previously appended value to [v/v/v].
func (b *ColBuilder) Append(v V) {
	if b.dense == nil {
		if v.IsCertain() {
			if v.SG.IsNull() {
				b.nulls++
			}
			b.flat = append(b.flat, v.SG)
			return
		}
		dense := make([]V, len(b.flat), cap(b.flat)+1)
		for i, sv := range b.flat {
			dense[i] = Certain(sv)
		}
		b.dense = dense
		b.flat = nil
		b.nulls = 0
	}
	b.dense = append(b.dense, v)
}

// Len returns the number of rows appended so far.
func (b *ColBuilder) Len() int {
	if b.dense != nil {
		return len(b.dense)
	}
	return len(b.flat)
}

// IsFlat reports whether the column is still in the flat layout.
func (b *ColBuilder) IsFlat() bool { return b.dense == nil }

// Nulls returns the null count of a still-flat column.
func (b *ColBuilder) Nulls() int { return b.nulls }

// Build returns the column appended so far. The builder may keep
// appending: the column's slices are clipped to their length, and later
// appends never write to rows it holds.
func (b *ColBuilder) Build() Col {
	if b.dense != nil {
		return Col{Dense: slices.Clip(b.dense)}
	}
	return Col{Flat: slices.Clip(b.flat), Nulls: b.nulls}
}
