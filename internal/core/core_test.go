package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

func iv(lo, sg, hi int64) rangeval.V {
	return rangeval.New(types.Int(lo), types.Int(sg), types.Int(hi))
}

func civ(v int64) rangeval.V { return rangeval.Certain(types.Int(v)) }

func cst(s string) rangeval.V { return rangeval.Certain(types.String(s)) }

func detRow(vs ...int64) types.Tuple {
	out := make(types.Tuple, len(vs))
	for i, v := range vs {
		out[i] = types.Int(v)
	}
	return out
}

func TestMult(t *testing.T) {
	m := Mult{1, 2, 3}
	if !m.Valid() || m.IsZero() {
		t.Error("valid")
	}
	if (Mult{2, 1, 3}).Valid() || (Mult{-1, 0, 0}).Valid() {
		t.Error("invalid triples accepted")
	}
	if m.Add(Mult{1, 1, 1}) != (Mult{2, 3, 4}) {
		t.Error("add")
	}
	if m.Mul(Mult{2, 2, 2}) != (Mult{2, 4, 6}) {
		t.Error("mul")
	}
	if m.Delta() != (Mult{1, 1, 1}) || Zero.Delta() != Zero {
		t.Error("delta")
	}
	if !m.Bounds(2) || m.Bounds(4) || m.Bounds(0) {
		t.Error("bounds")
	}
	// Section 8.2 counterexample: pointwise monus breaks ordering, the
	// bound-preserving variant does not.
	r := Mult{1, 2, 2}
	s := Mult{0, 0, 3}
	got := r.MonusBounds(s)
	if got != (Mult{0, 2, 2}) {
		t.Errorf("MonusBounds: %v", got)
	}
	if !got.Valid() {
		t.Error("MonusBounds validity")
	}
	if m.String() != "(1,2,3)" {
		t.Error("render")
	}
}

// fig5Relation builds the AU-relation of Figure 5a.
func fig5Relation() *Relation {
	r := New(schema.New("a", "b"))
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1), civ(1)}, M: Mult{2, 2, 3}})
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1), iv(1, 1, 3)}, M: Mult{2, 3, 3}})
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 2, 2), civ(3)}, M: Mult{1, 1, 1}})
	return r
}

func TestSGWExtraction(t *testing.T) {
	r := fig5Relation()
	sgw := r.SGW()
	// Figure 5b: (1,1) x5, (2,3) x1.
	if sgw.Count(detRow(1, 1)) != 5 || sgw.Count(detRow(2, 3)) != 1 {
		t.Errorf("SGW:\n%s", sgw)
	}
	if sgw.Size() != 6 {
		t.Errorf("SGW size %d", sgw.Size())
	}
}

func TestBoundsWorldFig5(t *testing.T) {
	r := fig5Relation()
	// World D1 = SGW.
	d1 := bag.New(schema.New("a", "b"))
	d1.Add(detRow(1, 1), 5)
	d1.Add(detRow(2, 3), 1)
	if !r.BoundsWorld(d1) {
		t.Error("D1 should be bounded")
	}
	// A compatible second world.
	d2 := bag.New(schema.New("a", "b"))
	d2.Add(detRow(1, 1), 2)
	d2.Add(detRow(1, 3), 2)
	d2.Add(detRow(2, 3), 1)
	if !r.BoundsWorld(d2) {
		t.Error("D2 should be bounded")
	}
	if !r.BoundsWorlds([]*bag.Relation{d1, d2}) {
		t.Error("incomplete database should be bounded (SGW = D1)")
	}
	// Unbounded worlds.
	bad := bag.New(schema.New("a", "b"))
	bad.Add(detRow(9, 9), 1)
	if r.BoundsWorld(bad) {
		t.Error("(9,9) cannot be covered")
	}
	tooMany := bag.New(schema.New("a", "b"))
	tooMany.Add(detRow(1, 1), 10) // exceeds all upper bounds
	if r.BoundsWorld(tooMany) {
		t.Error("multiplicity 10 exceeds upper bounds")
	}
	tooFew := bag.New(schema.New("a", "b"))
	tooFew.Add(detRow(1, 1), 1) // t1 requires at least 2
	if r.BoundsWorld(tooFew) {
		t.Error("lower bounds cannot be met")
	}
	if r.BoundsWorlds([]*bag.Relation{d2}) {
		t.Error("without the SGW among worlds, Definition 17 fails")
	}
}

func TestSGCombine(t *testing.T) {
	r := New(schema.New("a", "b"))
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 2, 2), iv(1, 3, 5)}, M: Mult{1, 2, 2}})
	r.Add(Tuple{Vals: rangeval.Tuple{iv(2, 2, 4), iv(3, 3, 4)}, M: Mult{3, 3, 4}})
	c, err := r.SGCombine()
	if err != nil {
		t.Fatal(err)
	}
	// Section 8.1 example: merged into ([1/2/4],[1/3/5]) with (4,5,6).
	if c.Len() != 1 {
		t.Fatalf("combined to %d tuples", c.Len())
	}
	got := c.Tuples[0]
	if got.M != (Mult{4, 5, 6}) {
		t.Errorf("combined annotation %v", got.M)
	}
	if types.Compare(got.Vals[0].Lo, types.Int(1)) != 0 ||
		types.Compare(got.Vals[0].Hi, types.Int(4)) != 0 ||
		types.Compare(got.Vals[1].Lo, types.Int(1)) != 0 ||
		types.Compare(got.Vals[1].Hi, types.Int(5)) != 0 {
		t.Errorf("combined ranges %v", got.Vals)
	}
}

func TestSelectExample9(t *testing.T) {
	// Example 9: R(A,B) = ([1/2/3], 2) with (1,2,3); σ_{A=2}.
	r := New(schema.New("a", "b"))
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 2, 3), civ(2)}, M: Mult{1, 2, 3}})
	db := DB{"r": r}
	out, err := Exec(context.Background(), &ra.Select{
		Child: &ra.Scan{Table: "r"},
		Pred:  expr.Eq(expr.Col(0, "a"), expr.CInt(2)),
	}, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows: %d", out.Len())
	}
	if out.Tuples[0].M != (Mult{0, 2, 3}) {
		t.Errorf("annotation %v, want (0,2,3)", out.Tuples[0].M)
	}
	// Certainly-failing tuples are removed entirely.
	out, err = Exec(context.Background(), &ra.Select{
		Child: &ra.Scan{Table: "r"},
		Pred:  expr.Eq(expr.Col(0, "a"), expr.CInt(9)),
	}, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("certainly-false tuples kept: %s", out)
	}
}

func TestProjectMergesValueEquivalent(t *testing.T) {
	r := New(schema.New("a", "b"))
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1), civ(10)}, M: Mult{1, 1, 1}})
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1), civ(20)}, M: Mult{1, 1, 2}})
	out, err := Exec(context.Background(), &ra.Project{
		Child: &ra.Scan{Table: "r"},
		Cols:  []ra.ProjCol{{E: expr.Col(0, "a"), Name: "a"}},
	}, DB{"r": r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0].M != (Mult{2, 2, 3}) {
		t.Errorf("projection merge: %s", out)
	}
}

func TestSetDifferenceSection82(t *testing.T) {
	// The running counterexample of Section 8.2 (no attribute
	// uncertainty): R(1) -> (1,2,2), R(2) -> (0,0,1); S(1) -> (0,0,3),
	// S(2) -> (0,1,1). Bound-preserving result for (1) is (0,2,2).
	r := New(schema.New("v"))
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: Mult{1, 2, 2}})
	r.Add(Tuple{Vals: rangeval.Tuple{civ(2)}, M: Mult{0, 0, 1}})
	s := New(schema.New("v"))
	s.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: Mult{0, 0, 3}})
	s.Add(Tuple{Vals: rangeval.Tuple{civ(2)}, M: Mult{0, 1, 1}})
	out, err := Exec(context.Background(), &ra.Diff{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "s"}},
		DB{"r": r, "s": s}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	find := func(v int64) (Mult, bool) {
		for _, tup := range out.Tuples {
			if types.Compare(tup.Vals[0].SG, types.Int(v)) == 0 {
				return tup.M, true
			}
		}
		return Mult{}, false
	}
	m1, ok := find(1)
	if !ok || m1 != (Mult{0, 2, 2}) {
		t.Errorf("(1): %v ok=%v want (0,2,2)", m1, ok)
	}
	if m2, ok := find(2); ok && m2 != (Mult{0, 0, 1}) {
		t.Errorf("(2): %v want (0,0,1)", m2)
	}
}

func TestDiffWithRangeOverlap(t *testing.T) {
	// Right tuples that only possibly match reduce the lower bound but
	// not the upper bound.
	l := New(schema.New("v"))
	l.Add(Tuple{Vals: rangeval.Tuple{civ(5)}, M: Mult{2, 2, 2}})
	r := New(schema.New("v"))
	r.Add(Tuple{Vals: rangeval.Tuple{iv(4, 6, 7)}, M: Mult{1, 1, 1}})
	out, err := Exec(context.Background(), &ra.Diff{Left: &ra.Scan{Table: "l"}, Right: &ra.Scan{Table: "r"}},
		DB{"l": l, "r": r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows %d", out.Len())
	}
	// lo: 2 - 1(possible match) = 1 ; sg: 2 - 0 = 2 ; hi: 2 - 0 = 2.
	if out.Tuples[0].M != (Mult{1, 2, 2}) {
		t.Errorf("got %v want (1,2,2)", out.Tuples[0].M)
	}
}

// TestAggregationFigure7b reproduces the paper's Figure 7b exactly:
// SELECT sum(#inhab) FROM address, with result [6/7/14] annotated (1,1,1).
func TestAggregationFigure7b(t *testing.T) {
	addr := addressRelation()
	out, err := Exec(context.Background(), &ra.Agg{
		Child: &ra.Scan{Table: "address"},
		Aggs:  []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(2, "inhab"), Name: "pop"}},
	}, DB{"address": addr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("rows %d", out.Len())
	}
	got := out.Tuples[0]
	if got.M != One {
		t.Errorf("annotation %v", got.M)
	}
	v := got.Vals[0]
	if !types.Same(v.Lo, types.Int(6)) || !types.Same(v.SG, types.Int(7)) || !types.Same(v.Hi, types.Int(14)) {
		t.Errorf("pop = %v, want [6/7/14]", v)
	}
}

// addressRelation is the input of Figure 7a. The street of the second
// tuple is completely uncertain (rendered red in the paper).
func addressRelation() *Relation {
	full := rangeval.Full(types.String("Canal"))
	r := New(schema.New("street", "number", "inhab"))
	r.Add(Tuple{Vals: rangeval.Tuple{cst("Canal"), civ(165), civ(1)}, M: Mult{1, 1, 2}})
	r.Add(Tuple{Vals: rangeval.Tuple{full, iv(153, 154, 156), iv(1, 2, 2)}, M: Mult{1, 1, 1}})
	r.Add(Tuple{Vals: rangeval.Tuple{cst("State"), iv(623, 623, 629), civ(2)}, M: Mult{2, 2, 3}})
	r.Add(Tuple{Vals: rangeval.Tuple{cst("Monroe"), iv(3550, 3574, 3585), iv(2, 3, 4)}, M: Mult{0, 0, 1}})
	return r
}

// TestAggregationFigure7c checks the group-by aggregation of Figure 7c.
// The State group has a certain (point) group box, so its bounds are tight:
// count [2/2/4] with row annotation (1,1,1).
func TestAggregationFigure7c(t *testing.T) {
	addr := addressRelation()
	out, err := Exec(context.Background(), &ra.Agg{
		Child:   &ra.Scan{Table: "address"},
		GroupBy: []int{0},
		Aggs:    []ra.AggSpec{{Fn: ra.AggCount, Name: "cnt"}},
	}, DB{"address": addr}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 { // SG groups: Canal (incl. the uncertain-street
		// tuple whose SG street is Canal), State, Monroe
		t.Fatalf("groups: %d\n%s", out.Len(), out)
	}
	var state *Tuple
	for i := range out.Tuples {
		if types.Equal(out.Tuples[i].Vals[0].SG, types.String("State")) {
			state = &out.Tuples[i]
		}
	}
	if state == nil {
		t.Fatal("no State group")
	}
	cnt := state.Vals[1]
	if !types.Same(cnt.Lo, types.Int(2)) || !types.Same(cnt.SG, types.Int(2)) || !types.Same(cnt.Hi, types.Int(4)) {
		t.Errorf("State count %v, want [2/2/4]", cnt)
	}
	if state.M != (Mult{1, 1, 3}) {
		// Definition 28: lo=δ(2)=1, sg=δ(2)=1, hi=Σhi=3.
		t.Errorf("State annotation %v, want (1,1,3)", state.M)
	}
}

func TestAggregationEmptyInput(t *testing.T) {
	empty := New(schema.New("a"))
	out, err := Exec(context.Background(), &ra.Agg{
		Child: &ra.Scan{Table: "t"},
		Aggs: []ra.AggSpec{
			{Fn: ra.AggSum, Arg: expr.Col(0, "a"), Name: "s"},
			{Fn: ra.AggCount, Name: "c"},
			{Fn: ra.AggMin, Arg: expr.Col(0, "a"), Name: "mn"},
			{Fn: ra.AggAvg, Arg: expr.Col(0, "a"), Name: "av"},
		},
	}, DB{"t": empty}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Tuples[0].M != One {
		t.Fatalf("empty agg: %s", out)
	}
	vals := out.Tuples[0].Vals
	if !types.Same(vals[0].SG, types.Int(0)) || !types.Same(vals[1].SG, types.Int(0)) {
		t.Errorf("neutral sum/count: %v", vals)
	}
	if vals[2].SG.Kind() != types.KindPosInf {
		t.Errorf("neutral min: %v", vals[2])
	}
	// Grouped aggregation over empty input yields nothing.
	out, err = Exec(context.Background(), &ra.Agg{
		Child:   &ra.Scan{Table: "t"},
		GroupBy: []int{0},
		Aggs:    []ra.AggSpec{{Fn: ra.AggCount, Name: "c"}},
	}, DB{"t": empty}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("grouped empty agg: %s", out)
	}
}

func TestAggregationDistinctUnsupported(t *testing.T) {
	r := New(schema.New("a"))
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: One})
	_, err := Exec(context.Background(), &ra.Agg{
		Child: &ra.Scan{Table: "r"},
		Aggs:  []ra.AggSpec{{Fn: ra.AggCount, Arg: expr.Col(0, "a"), Distinct: true, Name: "c"}},
	}, DB{"r": r}, Options{})
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("expected DISTINCT error, got %v", err)
	}
}

func TestJoinFigure8Shape(t *testing.T) {
	// Figure 8: both relations have overlapping ranges everywhere, so the
	// un-optimized join degenerates to a cross product of possible pairs.
	r := New(schema.New("a"))
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 1, 2)}, M: Mult{2, 2, 3}})
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 2, 2)}, M: Mult{1, 1, 2}})
	s := New(schema.New("c"))
	s.Add(Tuple{Vals: rangeval.Tuple{iv(1, 3, 3)}, M: Mult{1, 1, 1}})
	s.Add(Tuple{Vals: rangeval.Tuple{iv(1, 2, 2)}, M: Mult{1, 2, 2}})
	plan := &ra.Join{
		Left:  &ra.Scan{Table: "r"},
		Right: &ra.Scan{Table: "s"},
		Cond:  expr.Eq(expr.Col(0, "a"), expr.Col(1, "c")),
	}
	db := DB{"r": r, "s": s}
	out, err := Exec(context.Background(), plan, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Fatalf("expected all 4 possible pairs, got %d:\n%s", out.Len(), out)
	}
	// The SG pair ([1/2/2],[1/2/2]) survives in the SGW: sg mult 1*2=2.
	sgw := out.SGW()
	if sgw.Count(detRow(2, 2)) != 2 {
		t.Errorf("SGW of join:\n%s", sgw)
	}
	// Naive and hybrid paths agree.
	naive, err := Exec(context.Background(), plan, db, Options{NaiveJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Len() != out.Len() || naive.PossibleSize() != out.PossibleSize() {
		t.Errorf("naive/hybrid mismatch: %d/%d vs %d/%d",
			naive.Len(), naive.PossibleSize(), out.Len(), out.PossibleSize())
	}
}

func TestJoinCompressionBoundsResultSize(t *testing.T) {
	// Many uncertain tuples: compression caps the possible side.
	r := New(schema.New("a"))
	s := New(schema.New("c"))
	for i := int64(0); i < 40; i++ {
		r.Add(Tuple{Vals: rangeval.Tuple{iv(i, i+1, i+3)}, M: Mult{0, 1, 1}})
		s.Add(Tuple{Vals: rangeval.Tuple{iv(i, i+2, i+4)}, M: Mult{0, 1, 1}})
	}
	plan := &ra.Join{
		Left:  &ra.Scan{Table: "r"},
		Right: &ra.Scan{Table: "s"},
		Cond:  expr.Eq(expr.Col(0, "a"), expr.Col(1, "c")),
	}
	db := DB{"r": r, "s": s}
	exact, err := Exec(context.Background(), plan, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Exec(context.Background(), plan, db, Options{JoinCompression: 4})
	if err != nil {
		t.Fatal(err)
	}
	if comp.Len() >= exact.Len() {
		t.Errorf("compression did not shrink: %d vs %d", comp.Len(), exact.Len())
	}
	// The compressed result still over-approximates: total possible mass
	// must not shrink below the exact result's SGW-visible mass.
	if comp.SGW().Size() != exact.SGW().Size() {
		t.Errorf("compression must preserve the SGW: %d vs %d",
			comp.SGW().Size(), exact.SGW().Size())
	}
}

func TestSplitLemma6(t *testing.T) {
	r := fig5Relation()
	sg, up := Split(r)
	// split_sg holds only certain attribute values.
	for _, tup := range sg.Tuples {
		if !tup.Vals.IsCertain() {
			t.Errorf("split_sg kept uncertain tuple %v", tup)
		}
	}
	// split↑ annotations are (0,0,hi).
	for _, tup := range up.Tuples {
		if tup.M.Lo != 0 || tup.M.SG != 0 {
			t.Errorf("split↑ annotation %v", tup.M)
		}
	}
	// The union encodes the same SGW (Lemma 6).
	both := New(r.Schema)
	both.Tuples = append(both.Tuples, sg.Tuples...)
	both.Tuples = append(both.Tuples, up.Tuples...)
	if !both.SGW().Equal(r.SGW()) {
		t.Errorf("split broke the SGW:\n%s\nvs\n%s", both.SGW(), r.SGW())
	}
	// And still bounds the worlds bounded before.
	d1 := bag.New(schema.New("a", "b"))
	d1.Add(detRow(1, 1), 5)
	d1.Add(detRow(2, 3), 1)
	if !both.BoundsWorld(d1) {
		t.Error("split union no longer bounds D1")
	}
}

func TestCompressLemma7(t *testing.T) {
	r := New(schema.New("a"))
	for i := int64(0); i < 20; i++ {
		r.Add(Tuple{Vals: rangeval.Tuple{iv(i, i, i+1)}, M: Mult{0, 0, 1}})
	}
	c := Compress(r, 0, 4)
	if c.Len() > 4 {
		t.Errorf("compressed to %d > 4", c.Len())
	}
	if c.PossibleSize() != r.PossibleSize() {
		t.Errorf("compression lost mass: %d vs %d", c.PossibleSize(), r.PossibleSize())
	}
	// Every world bounded before stays bounded (Lemma 7): test a world
	// picking each tuple's SG value.
	w := bag.New(schema.New("a"))
	for i := int64(0); i < 20; i++ {
		w.Add(detRow(i), 1)
	}
	if !c.BoundsWorld(w) {
		t.Error("compressed relation no longer bounds world")
	}
	// Compressing an empty relation is a no-op.
	if Compress(New(schema.New("a")), 0, 4).Len() != 0 {
		t.Error("empty compress")
	}
}

// TestBoundariesClampHugeTarget: past len+1 buckets, i*len/n already
// visits every index, so a larger target must give the same split points
// as the unclamped loop, and a wire-sized target must not run for ages.
func TestBoundariesClampHugeTarget(t *testing.T) {
	r := New(schema.New("a"))
	for _, v := range []int64{5, 1, 9, 1, 3, 7, 7, 2, 8, 0, 4, 6} {
		r.Add(Tuple{Vals: rangeval.Tuple{iv(v, v, v+2)}, M: One})
	}
	// unclamped is the loop without the clamp, over the sorted endpoints.
	unclamped := func(n int) []types.Value {
		vals := []types.Value{}
		for _, v := range []int64{0, 1, 1, 2, 3, 4, 5, 6, 7, 7, 8, 9} {
			vals = append(vals, types.Int(v))
		}
		var bounds []types.Value
		for i := 1; i < n; i++ {
			v := vals[i*len(vals)/n]
			if len(bounds) == 0 || types.Less(bounds[len(bounds)-1], v) {
				bounds = append(bounds, v)
			}
		}
		return bounds
	}
	want := fmt.Sprint(unclamped(len(r.Tuples) + 1))
	for _, n := range []int{len(r.Tuples) + 1, len(r.Tuples) + 7} {
		if got := fmt.Sprint(boundariesOf(r, 0, n)); got != fmt.Sprint(unclamped(n)) || got != want {
			t.Errorf("n=%d: boundaries %s, unclamped %v, want %s", n, got, unclamped(n), want)
		}
	}
	if got := fmt.Sprint(boundariesOf(r, 0, 1<<40)); got != want {
		t.Errorf("n=1<<40: boundaries %s, want %s", got, want)
	}
}

func TestDistinct(t *testing.T) {
	r := New(schema.New("v"))
	r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: Mult{2, 3, 4}})
	r.Add(Tuple{Vals: rangeval.Tuple{iv(5, 6, 9)}, M: Mult{1, 2, 3}})
	out, err := Exec(context.Background(), &ra.Distinct{Child: &ra.Scan{Table: "r"}}, DB{"r": r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byVal := map[int64]Mult{}
	for _, tup := range out.Tuples {
		byVal[tup.Vals[0].SG.AsInt()] = tup.M
	}
	if byVal[1] != (Mult{1, 1, 1}) {
		t.Errorf("certain distinct: %v", byVal[1])
	}
	// Uncertain tuple may stand for up to 3 distinct values.
	if byVal[6] != (Mult{1, 1, 3}) {
		t.Errorf("uncertain distinct: %v", byVal[6])
	}
}

func TestDistinctOverlapDropsLowerBound(t *testing.T) {
	r := New(schema.New("v"))
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 2, 5)}, M: Mult{1, 1, 1}})
	r.Add(Tuple{Vals: rangeval.Tuple{iv(1, 3, 5)}, M: Mult{1, 1, 1}})
	out, err := Exec(context.Background(), &ra.Distinct{Child: &ra.Scan{Table: "r"}}, DB{"r": r}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range out.Tuples {
		if tup.M.Lo != 0 {
			t.Errorf("overlapping tuples must lose certain lower bounds: %v", tup)
		}
	}
	// Witness: the world where both collapse onto value 2.
	w := bag.New(schema.New("v"))
	w.Add(detRow(2), 1)
	if !out.BoundsWorld(w) {
		t.Error("collapsed world must stay bounded after distinct")
	}
}

func TestUnionAndOrderBy(t *testing.T) {
	r := New(schema.New("v"))
	r.Add(Tuple{Vals: rangeval.Tuple{civ(2)}, M: One})
	s := New(schema.New("v"))
	s.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: One})
	s.Add(Tuple{Vals: rangeval.Tuple{civ(2)}, M: One})
	db := DB{"r": r, "s": s}
	out, err := Exec(context.Background(), &ra.Union{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "s"}}, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("union rows %d", out.Len())
	}
	ord, err := Exec(context.Background(), &ra.OrderBy{Child: &ra.Union{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "s"}}, Keys: []int{0}, Desc: true}, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ord.Tuples[0].Vals[0].SG.AsInt() != 2 {
		t.Errorf("order by desc: %s", ord)
	}
	// Mismatched arity unions fail.
	two := New(schema.New("a", "b"))
	two.Add(Tuple{Vals: rangeval.Tuple{civ(1), civ(2)}, M: One})
	db["two"] = two
	if _, err := Exec(context.Background(), &ra.Union{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "two"}}, db, Options{}); err == nil {
		t.Error("union arity mismatch should error")
	}
	if _, err := Exec(context.Background(), &ra.Diff{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "two"}}, db, Options{}); err == nil {
		t.Error("diff arity mismatch should error")
	}
	if _, err := Exec(context.Background(), &ra.Scan{Table: "missing"}, db, Options{}); err == nil {
		t.Error("missing table should error")
	}
}

func TestFromDeterministicRoundtrip(t *testing.T) {
	d := bag.New(schema.New("a", "b"))
	d.Add(detRow(1, 2), 3)
	d.Add(detRow(4, 5), 1)
	au := FromDeterministic(d)
	if au.Len() != 2 || au.CertainSize() != 4 || au.PossibleSize() != 4 {
		t.Errorf("lift: %s", au)
	}
	if !au.SGW().Equal(d) {
		t.Error("SGW of lifted relation differs")
	}
	if !au.BoundsWorld(d) {
		t.Error("lifted relation must bound its origin")
	}
	dbs := DB{"t": au}
	if len(dbs.Schemas()) != 1 {
		t.Error("schemas")
	}
	if !dbs.SGW()["t"].Equal(d) {
		t.Error("db SGW")
	}
	if au.String() == "" || au.Tuples[0].String() == "" {
		t.Error("render")
	}
}

// TestJoinBuildSideIdentity: the hybrid join must produce the identical
// canonical result whichever side feeds the hash index — the property the
// stats-driven build-side selection relies on.
func TestJoinBuildSideIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mk := func(rows int) *Relation {
		rel := New(schema.New("a", "b"))
		for i := 0; i < rows; i++ {
			v := rangeval.Certain(types.Int(int64(rng.Intn(5))))
			if rng.Intn(5) == 0 {
				sg := int64(rng.Intn(5))
				v = rangeval.New(types.Int(sg-1), types.Int(sg), types.Int(sg+1))
			}
			rel.Add(Tuple{
				Vals: rangeval.Tuple{v, rangeval.Certain(types.Int(int64(rng.Intn(4))))},
				M:    Mult{Lo: int64(rng.Intn(2)), SG: 1, Hi: 1 + int64(rng.Intn(2))},
			})
		}
		return rel
	}
	l, r := mk(40), mk(13)
	cond := expr.And(
		expr.Eq(expr.Col(0, "a"), expr.Col(2, "a")),
		expr.Leq(expr.Col(1, "b"), expr.Col(3, "b")),
	)
	for _, workers := range []int{1, 4} {
		right, err := JoinRelations(context.Background(), l, r, cond, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		left, err := JoinRelations(context.Background(), l, r, cond, Options{Workers: workers, JoinBuildLeft: true})
		if err != nil {
			t.Fatal(err)
		}
		if right.Merge().Sort().String() != left.Merge().Sort().String() {
			t.Fatalf("build side changed the join result (workers=%d):\n%s\nvs\n%s", workers, right, left)
		}
	}
}
