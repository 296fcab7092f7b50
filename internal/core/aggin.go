package core

import "github.com/audb/audb/internal/rangeval"

// AggInput is the aggregation kernel's input kept in the layout it arrived
// in: a sequence of parts, each either row tuples or columns with one
// multiplicity per row (the layout of a sparse relation, see sparse.go).
// Rows are ordered part by part. The kernel reads every part through the
// same accessors, so a columnar input is never densified.
type AggInput struct {
	parts []aggPart
	n     int
	hint  int
}

// aggPart is one run of input rows in a single layout.
type aggPart struct {
	columnar bool
	rows     []Tuple // the row layout
	// The columnar layout: one column per attribute, and exactly one of
	// mflat (certain multiplicities) and mdense.
	cols   []rangeval.Col
	mflat  []int64
	mdense []Mult
	n      int
}

// NewAggInput returns an empty input. sizeHint (the planner's estimated
// row count, 0 = none) pre-sizes the first run of row tuples.
func NewAggInput(sizeHint int) *AggInput { return &AggInput{hint: sizeHint} }

// aggInputOf views a materialized relation as an aggregation input without
// copying it: a dense relation is one run of tuples, a sparse one one run
// of its stored columns.
func aggInputOf(r *Relation) *AggInput {
	sp := r.header()
	if sp != nil {
		return &AggInput{n: sp.n, parts: []aggPart{{columnar: true, cols: sp.cols, mflat: sp.mflat, mdense: sp.mdense, n: sp.n}}}
	}
	in := &AggInput{n: len(r.Tuples)}
	if len(r.Tuples) > 0 {
		in.parts = []aggPart{{rows: r.Tuples, n: len(r.Tuples)}}
	}
	return in
}

// Len returns the number of input rows.
func (in *AggInput) Len() int { return in.n }

// AppendRows appends row tuples. The Tuple structs are copied; their
// ranges are shared, as every engine treats them as immutable.
func (in *AggInput) AppendRows(rows []Tuple) {
	if len(rows) == 0 {
		return
	}
	if k := len(in.parts); k == 0 || in.parts[k-1].columnar {
		in.parts = append(in.parts, aggPart{rows: make([]Tuple, 0, max(in.hint-in.n, len(rows)))})
	}
	pt := &in.parts[len(in.parts)-1]
	pt.rows = append(pt.rows, rows...)
	pt.n = len(pt.rows)
	in.n += len(rows)
}

// AppendColumns appends the live rows of a columnar batch — the indexes in
// sel, or all n rows when sel is nil — copied verbatim: a flat column stays
// flat and a dense column keeps its triples as they are, so no value
// changes its bits on the way in.
func (in *AggInput) AppendColumns(cols []rangeval.Col, mflat []int64, mdense []Mult, n int, sel []int) {
	live := n
	if sel != nil {
		live = len(sel)
	}
	if live == 0 {
		return
	}
	pt := aggPart{columnar: true, cols: make([]rangeval.Col, len(cols)), n: live}
	for c, col := range cols {
		if col.IsFlat() {
			pt.cols[c] = rangeval.ColFromFlat(gather(col.Flat, sel))
		} else {
			pt.cols[c] = rangeval.ColFromDense(gather(col.Dense, sel))
		}
	}
	if mflat != nil {
		pt.mflat = gather(mflat, sel)
	} else {
		pt.mdense = gather(mdense, sel)
	}
	in.parts = append(in.parts, pt)
	in.n += live
}

// gather copies the elements of xs at sel, or all of xs when sel is nil.
func gather[T any](xs []T, sel []int) []T {
	if sel == nil {
		return append([]T(nil), xs...)
	}
	out := make([]T, len(sel))
	for k, i := range sel {
		out[k] = xs[i]
	}
	return out
}

// mult returns row i's multiplicity triple.
func (pt *aggPart) mult(i int) Mult {
	switch {
	case !pt.columnar:
		return pt.rows[i].M
	case pt.mflat != nil:
		m := pt.mflat[i]
		return Mult{Lo: m, SG: m, Hi: m}
	}
	return pt.mdense[i]
}

// val returns row i's value of attribute c: the stored triple, read in
// place, or for a flat column scratch set to the certain value.
func (pt *aggPart) val(c, i int, scratch *rangeval.V) *rangeval.V {
	if !pt.columnar {
		return &pt.rows[i].Vals[c]
	}
	return pt.cols[c].Ref(i, scratch)
}
