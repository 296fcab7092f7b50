package core

import (
	"fmt"
	"slices"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
)

// Columnar relation storage. Every registered table is stored by
// columns (rangeval.Col): a fully certain, null-free column is one flat
// value slice, any other column keeps its [lb/sg/ub] triples, and
// multiplicities get the same treatment (one int64 per row when every
// row's triple is (m,m,m)). AU-DB bounds are per attribute, so a column
// that is certain costs one value per row whatever its neighbours hold.
// The dense layout (a Tuple per row) is only that of relations built row
// by row: kernel intermediates and tables filled before registration.
//
// Columnar storage is append-only. A relation made by Compact or Finish
// keeps its RelationBuilder and Add appends through it, never rewriting a
// row, so a header (sparseRows) taken earlier stays valid. View pins the
// current header as a read-only relation, cached until the next append;
// a catalog snapshot holds one view per table, so a query sees exactly
// the rows appended before it started. Columnar scans read the columns
// directly (SparseView); the materialized kernels read a fresh dense copy
// (Dense).

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

// sparseRows is a columnar header: the first n rows of a relation's
// columns. It is never modified once built.
type sparseRows struct {
	n    int
	cols []rangeval.Col
	// mflat holds per-row certain multiplicities (the triple (m,m,m)
	// stored once); mdense holds full triples. At most one is non-nil.
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

// header returns the relation's columnar header, or nil for a dense
// relation.
func (r *Relation) header() *sparseRows {
	if r.b.Load() == nil {
		return r.sp
	}
	return r.View().sp
}

// View returns a read-only view of the relation's rows as they are now:
// for a columnar relation that takes appends, a relation over its current
// header, which later appends never change; r itself otherwise. The view
// is cached until the next append, so pinning an unchanged table costs
// one lock and no allocation.
func (r *Relation) View() *Relation {
	b := r.b.Load()
	if b == nil {
		return r
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.view == nil {
		r.view = &Relation{Schema: r.Schema, sp: b.header()}
	}
	return r.view
}

// IsSparse reports whether the relation is in the columnar representation.
func (r *Relation) IsSparse() bool { return r.header() != nil }

// StorageDetail describes the representation for statistics reporting:
// how many of the relation's columns are flat and whether multiplicities
// are stored flat. For a dense relation flatCols and multFlat are zero.
func (r *Relation) StorageDetail() (repr Repr, flatCols int, multFlat bool) {
	sp := r.header()
	if sp == nil {
		return ReprDense, 0, false
	}
	for _, c := range sp.cols {
		if c.IsFlat() {
			flatCols++
		}
	}
	return ReprSparse, flatCols, sp.mflat != nil
}

// SparseView exposes the sparse storage for zero-copy batched iteration
// (the pipelined executor's columnar scans): the per-column storage and
// the multiplicity slices, of which exactly one is non-nil when the
// relation has rows. ok is false for a dense relation. All returned
// slices alias the relation's storage and are read-only, like the columns
// themselves (see rangeval.Col).
func (r *Relation) SparseView() (cols []rangeval.Col, mflat []int64, mdense []Mult, ok bool) {
	sp := r.header()
	if sp == nil {
		return nil, nil, nil, false
	}
	return sp.cols, sp.mflat, sp.mdense, true
}

// Dense returns a dense view of the relation: r itself when already
// dense, otherwise a fresh materialization that shares no mutable state
// with r. Operators without a sparse-aware path call this at entry; the
// result is transient and never cached back onto r.
func (r *Relation) Dense() *Relation {
	sp := r.header()
	if sp == nil {
		return r
	}
	out := New(r.Schema)
	out.Tuples = sp.denseTuples(0, sp.n)
	return out
}

// DenseRange materializes rows [lo, hi) as fresh dense tuples, for
// batched iteration (internal/phys) over a sparse relation.
func (r *Relation) DenseRange(lo, hi int) []Tuple {
	sp := r.header()
	if sp == nil {
		return r.Tuples[lo:hi]
	}
	return sp.denseTuples(lo, hi)
}

// EachTuple calls fn for every row in either representation. For a sparse
// relation the Tuple's Vals slice is a scratch buffer reused between
// calls: fn must not retain it (Clone first to keep a row).
func (r *Relation) EachTuple(fn func(Tuple) error) error {
	sp := r.header()
	if sp == nil {
		for _, t := range r.Tuples {
			if err := fn(t); err != nil {
				return err
			}
		}
		return nil
	}
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

// densifyInPlace converts the relation back to the dense layout, for the
// in-place operations (Merge, Sort) on a relation the caller owns.
func (r *Relation) densifyInPlace() {
	sp := r.header()
	if sp == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Tuples = sp.denseTuples(0, sp.n)
	r.sp, r.view = nil, nil
	r.b.Store(nil)
}

// Compact converts a dense or empty relation to the columnar
// representation in place and returns ReprSparse; a columnar relation is
// left as is. It panics when a row's length differs from the schema's.
func (r *Relation) Compact(StoragePolicy) Repr {
	if err := r.compact(); err != nil {
		panic("core: " + err.Error())
	}
	return ReprSparse
}

// compact is Compact, reporting a row of the wrong arity as an error
// instead, before anything is converted. Catalog.Register runs it, so
// the arity check and the conversion hold the relation's lock together.
func (r *Relation) compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.b.Load() != nil || r.sp != nil {
		return nil
	}
	for _, t := range r.Tuples {
		if len(t.Vals) != r.Schema.Arity() {
			return arityErr(len(t.Vals), r.Schema.Arity())
		}
	}
	b := NewRelationBuilder(r.Schema, len(r.Tuples))
	for _, t := range r.Tuples {
		b.Add(t)
	}
	r.Tuples = nil
	r.b.Store(b)
	return nil
}

// arityErr reports a row whose length differs from its relation's
// column count.
func arityErr(got, want int) error {
	return fmt.Errorf("row has %d values, want %d columns", got, want)
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
// exactly like Relation.Add. It panics on a row whose length differs from
// the schema's.
func (b *RelationBuilder) Add(t Tuple) {
	if t.M.Hi <= 0 {
		return
	}
	if len(t.Vals) != len(b.cols) {
		panic("core: " + arityErr(len(t.Vals), len(b.cols)).Error())
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

// header returns the rows added so far. Its slices are clipped to their
// length, so the builder's later appends never write to rows it holds.
func (b *RelationBuilder) header() *sparseRows {
	sp := &sparseRows{n: b.n, cols: make([]rangeval.Col, len(b.cols)), mflat: slices.Clip(b.mflat), mdense: slices.Clip(b.mdense)}
	for i := range b.cols {
		sp.cols[i] = b.cols[i].Build()
	}
	return sp
}

// Finish builds the columnar relation. The relation keeps the builder and
// appends through it (Relation.Add), so the caller must not use the
// builder afterwards.
func (b *RelationBuilder) Finish() *Relation {
	out := New(b.sch)
	out.b.Store(b)
	return out
}
