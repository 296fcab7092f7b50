package core

import (
	"slices"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
)

// Columnar relation storage. Every non-empty relation the catalog holds
// is stored by columns (rangeval.Col): a fully certain, null-free column
// is one flat value slice, any other column keeps its [lb/sg/ub] triples,
// and multiplicities get the same treatment (one int64 per row when every
// row's triple is (m,m,m)). AU-DB bounds are per attribute, so a column
// that is certain costs one value per row whatever its neighbours hold.
//
// The dense layout — a slice of Tuples, a full triple per attribute and a
// multiplicity triple per row — is not a storage choice. It is the layout
// of relations built row by row: kernel intermediates, an empty table
// that rows are being added to, and a registered table mutated in place
// until the next Database.Analyze stores it columnar again.
//
// The representation is invisible to query semantics: the pipelined
// executor's columnar scans read the columns directly (SparseView), the
// materialized kernels read a fresh dense view made at operator entry
// (Dense), and any in-place mutation densifies first. A columnar relation
// is never converted back to dense in place while it may be shared (see
// Compact); Analyze swaps in a rebuilt replacement in the catalog.

// Repr identifies a relation's storage representation.
type Repr uint8

const (
	// ReprDense is the row-major []Tuple layout.
	ReprDense Repr = iota
	// ReprSparse is the columnar layout with flat certain columns.
	ReprSparse
)

// String renders the representation name as audbsh \stats reports it.
func (r Repr) String() string {
	if r == ReprSparse {
		return "sparse"
	}
	return "dense"
}

// StoragePolicy is the argument of Relation.Compact. It carries no
// choice: every non-empty relation is stored columnar. It stays a type so
// callers that compact a relation themselves (the benchmark passes
// Database.StoragePolicy) keep compiling.
type StoragePolicy struct{}

// sparseRows is the columnar payload of a compacted relation.
type sparseRows struct {
	n    int
	cols []rangeval.Col
	// mflat holds per-row certain multiplicities (the triple (m,m,m)
	// stored once); mdense holds full triples. Exactly one is non-nil
	// for n > 0.
	mflat  []int64
	mdense []Mult
}

func (sp *sparseRows) multAt(i int) Mult {
	if sp.mflat != nil {
		m := sp.mflat[i]
		return Mult{Lo: m, SG: m, Hi: m}
	}
	return sp.mdense[i]
}

// denseTuples materializes rows [lo, hi) as fresh dense tuples. The Vals
// slices are carved from one arena allocation and share nothing with the
// sparse storage except immutable value internals.
func (sp *sparseRows) denseTuples(lo, hi int) []Tuple {
	n := hi - lo
	arity := len(sp.cols)
	out := make([]Tuple, n)
	arena := make(rangeval.Tuple, n*arity)
	for i := 0; i < n; i++ {
		vals := arena[i*arity : (i+1)*arity : (i+1)*arity]
		for c := range sp.cols {
			vals[c] = sp.cols[c].At(lo + i)
		}
		out[i] = Tuple{Vals: vals, M: sp.multAt(lo + i)}
	}
	return out
}

// Repr returns the relation's current storage representation.
func (r *Relation) Repr() Repr {
	if r.sp != nil {
		return ReprSparse
	}
	return ReprDense
}

// IsSparse reports whether the relation is in the columnar representation.
func (r *Relation) IsSparse() bool { return r.sp != nil }

// StorageDetail describes the representation for statistics reporting:
// how many of the relation's columns are flat and whether multiplicities
// are stored flat. For a dense relation flatCols and multFlat are zero.
func (r *Relation) StorageDetail() (repr Repr, flatCols int, multFlat bool) {
	if r.sp == nil {
		return ReprDense, 0, false
	}
	for _, c := range r.sp.cols {
		if c.IsFlat() {
			flatCols++
		}
	}
	return ReprSparse, flatCols, r.sp.mflat != nil
}

// SparseView exposes the sparse storage for zero-copy batched iteration
// (the pipelined executor's columnar scans): the per-column storage and
// the multiplicity slices, of which exactly one is non-nil when the
// relation has rows. ok is false for a dense relation. All returned
// slices alias the relation's storage and are read-only, like the columns
// themselves (see rangeval.Col).
func (r *Relation) SparseView() (cols []rangeval.Col, mflat []int64, mdense []Mult, ok bool) {
	if r.sp == nil {
		return nil, nil, nil, false
	}
	return r.sp.cols, r.sp.mflat, r.sp.mdense, true
}

// Dense returns a dense view of the relation: r itself when already
// dense, otherwise a fresh materialization that shares no mutable state
// with r. Operators without a sparse-aware path call this at entry; the
// result is transient and never cached back onto r.
func (r *Relation) Dense() *Relation {
	if r.sp == nil {
		return r
	}
	out := New(r.Schema)
	out.Tuples = r.sp.denseTuples(0, r.sp.n)
	return out
}

// DenseRange materializes rows [lo, hi) as fresh dense tuples, for
// batched iteration (internal/phys) over a sparse relation.
func (r *Relation) DenseRange(lo, hi int) []Tuple {
	if r.sp == nil {
		return r.Tuples[lo:hi]
	}
	return r.sp.denseTuples(lo, hi)
}

// EachTuple calls fn for every row in either representation. For a sparse
// relation the Tuple's Vals slice is a scratch buffer reused between
// calls: fn must not retain it (Clone first to keep a row).
func (r *Relation) EachTuple(fn func(Tuple) error) error {
	if r.sp == nil {
		for _, t := range r.Tuples {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	}
	sp := r.sp
	scratch := make(rangeval.Tuple, len(sp.cols))
	for i := 0; i < sp.n; i++ {
		for c := range sp.cols {
			scratch[c] = sp.cols[c].At(i)
		}
		if err := fn(Tuple{Vals: scratch, M: sp.multAt(i)}); err != nil {
			return err
		}
	}
	return nil
}

// densifyInPlace converts the relation back to the dense layout. Only
// safe on relations the caller owns exclusively (mutation entry points);
// a registered relation flips representation via replacement in the
// catalog instead, never in place under concurrent readers.
func (r *Relation) densifyInPlace() {
	if r.sp == nil {
		return
	}
	r.Tuples = r.sp.denseTuples(0, r.sp.n)
	r.sp = nil
}

// Compact converts a dense relation to the columnar representation in
// place, returning the representation in effect. Rows must match the
// schema's arity. An already columnar relation is left as is: compaction
// runs before a relation becomes visible to queries, and a visible
// columnar relation may have concurrent readers, so it is never rewritten
// in place. Empty relations stay dense so the register-then-add-rows
// pattern keeps appending to []Tuple.
func (r *Relation) Compact(StoragePolicy) Repr {
	if r.sp != nil {
		return ReprSparse
	}
	if len(r.Tuples) == 0 {
		return ReprDense
	}
	b := NewRelationBuilder(r.Schema, len(r.Tuples))
	for _, t := range r.Tuples {
		b.Add(t)
	}
	r.sp = b.buildSparse()
	r.Tuples = nil
	return ReprSparse
}

// RelationBuilder accumulates rows column-wise so bulk ingest (COPY, the
// wire decoder) can materialize straight into sparse form without a
// second pass over the data. Add mirrors Relation.Add (rows with a zero
// upper multiplicity are dropped); rows must match the schema's arity.
type RelationBuilder struct {
	sch    schema.Schema
	cols   []rangeval.ColBuilder
	mflat  []int64
	mdense []Mult
	n      int
}

// NewRelationBuilder creates a builder for the given schema, reserving
// capacity for sizeHint rows.
func NewRelationBuilder(s schema.Schema, sizeHint int) *RelationBuilder {
	b := &RelationBuilder{sch: s, cols: make([]rangeval.ColBuilder, s.Arity())}
	if sizeHint > 0 {
		b.Grow(sizeHint)
	}
	return b
}

// Grow reserves capacity for n more rows in every column and in the
// multiplicities. Like ColBuilder.Grow it grows geometrically, so a
// caller that knows its input batch by batch can reserve each batch:
// rows that arrive in one batch then fill storage sized to their number,
// where append growth can leave up to half of it unused.
func (b *RelationBuilder) Grow(n int) {
	for i := range b.cols {
		b.cols[i].Grow(n)
	}
	if b.mdense != nil {
		b.mdense = slices.Grow(b.mdense, n)
	} else {
		b.mflat = slices.Grow(b.mflat, n)
	}
}

// Arity returns the builder's schema arity.
func (b *RelationBuilder) Arity() int { return b.sch.Arity() }

// Len returns the number of rows added so far.
func (b *RelationBuilder) Len() int { return b.n }

// Add appends one row. Rows whose upper multiplicity is <= 0 are dropped,
// exactly like Relation.Add.
func (b *RelationBuilder) Add(t Tuple) {
	if t.M.Hi <= 0 {
		return
	}
	for c := range b.cols {
		b.cols[c].Append(t.Vals[c])
	}
	if b.mdense == nil {
		if t.M.Lo == t.M.SG && t.M.SG == t.M.Hi {
			b.mflat = append(b.mflat, t.M.SG)
		} else {
			b.mdense = make([]Mult, b.n, cap(b.mflat)+1)
			for i, m := range b.mflat {
				b.mdense[i] = Mult{Lo: m, SG: m, Hi: m}
			}
			b.mflat = nil
			b.mdense = append(b.mdense, t.M)
		}
	} else {
		b.mdense = append(b.mdense, t.M)
	}
	b.n++
}

func (b *RelationBuilder) buildSparse() *sparseRows {
	sp := &sparseRows{n: b.n, cols: make([]rangeval.Col, len(b.cols)), mflat: b.mflat, mdense: b.mdense}
	for i := range b.cols {
		sp.cols[i] = b.cols[i].Build()
	}
	return sp
}

// Finish builds the relation: columnar when it has rows, an empty dense
// relation otherwise. The builder must not be reused afterwards.
func (b *RelationBuilder) Finish() *Relation {
	out := New(b.sch)
	if b.n > 0 {
		out.sp = b.buildSparse()
	}
	return out
}
