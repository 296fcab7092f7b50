package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// TestUnknownBooleanFilterAndJoin: a selection or join condition that is
// a value, the unknown boolean [-inf/true/+inf], gives the factor (0,1,1):
// its selected-guess world keeps the row. WHERE b and WHERE NOT NOT b
// agree, in FilterTuple and in both join strategies.
func TestUnknownBooleanFilterAndJoin(t *testing.T) {
	b := expr.Col(0, "b")
	conds := []expr.Expr{b, expr.Not{E: expr.Not{E: b}}}
	want := Mult{Lo: 0, SG: 1, Hi: 1}
	row := Tuple{Vals: rangeval.Tuple{rangeval.Full(types.Bool(true))}, M: One}
	for _, c := range conds {
		out, keep, err := FilterTuple(row, c)
		if err != nil || !keep || out.M != want {
			t.Errorf("WHERE %s: keep %v, M %v, err %v; want M %v", c, keep, out.M, err, want)
		}
	}
	l, r := New(schema.New("b")), New(schema.New("x"))
	l.Add(row)
	r.Add(Tuple{Vals: rangeval.Tuple{civ(7)}, M: One})
	for _, c := range conds {
		for _, naive := range []bool{false, true} {
			out, err := JoinRelations(context.Background(), l, r, c, Options{NaiveJoin: naive})
			if err != nil || out.Len() != 1 || out.Dense().Tuples[0].M != want {
				t.Errorf("JOIN ON %s (naive %v): %v, %v; want one row with M %v", c, naive, out, err, want)
			}
		}
	}
}

// TestAggOverflowSaturates: with two rows x = [0/5/MaxInt64-10], sum(x) is
// [0/10/+inf] (it was [0/10/10], wrapped), the average's upper bound is
// +inf, min and max are untouched, and a sum whose SG overflows is an
// integer overflow error. Every case matches the oracle.
func TestAggOverflowSaturates(t *testing.T) {
	x := rangeval.New(types.Int(0), types.Int(5), types.Int(math.MaxInt64-10))
	in := New(schema.New("x"))
	in.Add(Tuple{Vals: rangeval.Tuple{x}, M: One})
	in.Add(Tuple{Vals: rangeval.Tuple{x}, M: One})
	a := expr.Col(0, "x")
	specs := []ra.AggSpec{
		{Fn: ra.AggSum, Arg: a, Name: "s"},
		{Fn: ra.AggAvg, Arg: a, Name: "m"},
		{Fn: ra.AggMax, Arg: a, Name: "hi"},
		{Fn: ra.AggSum, Arg: expr.Mul(a, expr.CInt(3)), Name: "s3"},
	}
	out, err := AggRelations(context.Background(), in, nil, specs, schema.New("s", "m", "hi", "s3"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Dense().Tuples[0].Vals
	wants := []rangeval.V{
		rangeval.New(types.Int(0), types.Int(10), types.PosInf()),
		rangeval.New(types.Float(0), types.Float(5), types.PosInf()),
		rangeval.New(types.Int(0), types.Int(5), types.Int(math.MaxInt64-10)),
		rangeval.New(types.Int(0), types.Int(30), types.PosInf()),
	}
	for j, w := range wants {
		if !types.Same(got[j].Lo, w.Lo) || !types.Same(got[j].SG, w.SG) || !types.Same(got[j].Hi, w.Hi) {
			t.Errorf("%s = %v, want %v", specs[j].Name, got[j], w)
		}
	}
	checkAggRelation(t, in, nil, specs, 1)

	huge := New(schema.New("x"))
	for range 2 {
		huge.Add(Tuple{Vals: rangeval.Tuple{civ(math.MaxInt64)}, M: One})
	}
	_, err = AggRelations(context.Background(), huge, nil, specs[:1], schema.New("s"), Options{})
	if err == nil || !strings.Contains(err.Error(), "integer overflow") {
		t.Errorf("sum over MaxInt64 twice: error %v, want an integer overflow", err)
	}
	checkAggRelation(t, huge, nil, specs[:1], 1)
}

// TestAggMonoidAtInt64Extremes: ⊛ and +_M at MinInt64 and MaxInt64. The
// SG forms fail on overflow; the bound forms saturate, toward the
// sentinel on their own side and to the int64 extreme on the other.
func TestAggMonoidAtInt64Extremes(t *testing.T) {
	maxV, minV := types.Int(math.MaxInt64), types.Int(math.MinInt64)
	if _, err := monoidSum.star(2, maxV); err == nil {
		t.Error("2 ⊛ MaxInt64: no error")
	}
	if _, err := monoidSum.plus(minV, types.Int(-1)); err == nil {
		t.Error("MinInt64 + -1: no error")
	}
	type bounds struct {
		lo, hi types.Value
		err    error
	}
	of := func(lo, hi types.Value, err error) bounds { return bounds{lo, hi, err} }
	one := func(v types.Value, err error) bounds { return bounds{v, v, err} }
	v := rangeval.New(types.Int(-1), types.Int(1), maxV)
	cases := []struct {
		name string
		got  bounds
		want bounds
	}{
		{"3 ⊛ MaxInt64", of(monoidSum.starBound(3, maxV)), bounds{maxV, types.PosInf(), nil}},
		{"2 ⊛ MinInt64", of(monoidSum.starBound(2, minV)), bounds{types.NegInf(), minV, nil}},
		{"(0,1,2) ⊛ [-1/1/MaxInt64]", of(monoidSum.starBounds(&Mult{Lo: 0, SG: 1, Hi: 2}, &v)), bounds{types.Int(-2), types.PosInf(), nil}},
		{"MaxInt64 + 1 as a lower bound", one(monoidSum.plusBound(maxV, types.Int(1), -1)), bounds{maxV, maxV, nil}},
		{"MinInt64 + -1 as an upper bound", one(monoidSum.plusBound(minV, types.Int(-1), 1)), bounds{minV, minV, nil}},
		{"min of the extremes", one(monoidMin.plusBound(minV, maxV, -1)), bounds{minV, minV, nil}},
	}
	for _, c := range cases {
		if c.got.err != nil || !types.Same(c.got.lo, c.want.lo) || !types.Same(c.got.hi, c.want.hi) {
			t.Errorf("%s = %v, %v, %v; want %v, %v", c.name, c.got.lo, c.got.hi, c.got.err, c.want.lo, c.want.hi)
		}
	}
	// The average of saturated bounds: inf/inf may be anything.
	avg := avgBounds(rangeval.New(types.Int(0), types.Int(4), types.PosInf()), rangeval.New(types.Int(1), types.Int(2), types.PosInf()))
	if avg.Lo.Kind() != types.KindNegInf || avg.Hi.Kind() != types.KindPosInf || avg.SG.AsFloat() != 2 {
		t.Errorf("avg of [0/4/+inf] over [1/2/+inf] = %v", avg)
	}
}
