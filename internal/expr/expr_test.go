package expr

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

func mustEval(t *testing.T, e Expr, tup types.Tuple) types.Value {
	t.Helper()
	v, err := e.Eval(tup)
	if err != nil {
		t.Fatalf("Eval(%s) error: %v", e, err)
	}
	return v
}

func mustRange(t *testing.T, e Expr, tup rangeval.Tuple) rangeval.V {
	t.Helper()
	v, err := e.EvalRange(tup)
	if err != nil {
		t.Fatalf("EvalRange(%s) error: %v", e, err)
	}
	if !v.Valid() {
		t.Fatalf("EvalRange(%s) produced invalid range %v", e, v)
	}
	return v
}

func TestConstAndAttr(t *testing.T) {
	tup := types.Tuple{types.Int(10), types.String("a")}
	if !types.Same(mustEval(t, CInt(3), tup), types.Int(3)) {
		t.Error("const")
	}
	if !types.Same(mustEval(t, Col(0, "x"), tup), types.Int(10)) {
		t.Error("attr")
	}
	if _, err := Col(5, "oob").Eval(tup); err == nil {
		t.Error("out of range attr should error")
	}
	rt := rangeval.CertainTuple(tup)
	if _, err := Col(5, "oob").EvalRange(rt); err == nil {
		t.Error("out of range attr should error (range)")
	}
	if got := mustRange(t, CStr("q"), rt); !got.IsCertain() {
		t.Error("const range should be certain")
	}
	if Col(2, "").String() != "$2" || Col(2, "n").String() != "n" {
		t.Error("attr string")
	}
	if CStr("s").String() != `"s"` || CInt(1).String() != "1" {
		t.Error("const string")
	}
}

func TestArithmeticDetEval(t *testing.T) {
	tup := types.Tuple{types.Int(6), types.Int(4)}
	a, b := Col(0, "a"), Col(1, "b")
	if !types.Same(mustEval(t, Add(a, b), tup), types.Int(10)) {
		t.Error("add")
	}
	if !types.Same(mustEval(t, Sub(a, b), tup), types.Int(2)) {
		t.Error("sub")
	}
	if !types.Same(mustEval(t, Mul(a, b), tup), types.Int(24)) {
		t.Error("mul")
	}
	if !types.Same(mustEval(t, Div(a, b), tup), types.Float(1.5)) {
		t.Error("div")
	}
	if _, err := Div(a, CInt(0)).Eval(tup); err == nil {
		t.Error("div by zero")
	}
	if !strings.Contains(Add(a, b).String(), "+") {
		t.Error("string rendering")
	}
}

func TestComparisonsDetEval(t *testing.T) {
	tup := types.Tuple{types.Int(3), types.Int(5)}
	a, b := Col(0, "a"), Col(1, "b")
	cases := []struct {
		e    Expr
		want bool
	}{
		{Eq(a, b), false}, {Eq(a, a), true},
		{Neq(a, b), true}, {Lt(a, b), true}, {Lt(b, a), false},
		{Leq(a, a), true}, {Gt(b, a), true}, {Geq(a, b), false},
	}
	for _, c := range cases {
		if got := mustEval(t, c.e, tup).AsBool(); got != c.want {
			t.Errorf("%s = %v want %v", c.e, got, c.want)
		}
	}
	// Null comparisons are false.
	nt := types.Tuple{types.Null(), types.Int(5)}
	if mustEval(t, Eq(a, b), nt).AsBool() || mustEval(t, Lt(a, b), nt).AsBool() {
		t.Error("comparison with null should be false")
	}
	if !mustEval(t, IsNull{E: a}, nt).AsBool() {
		t.Error("IS NULL on null")
	}
	if mustEval(t, IsNull{E: b}, nt).AsBool() {
		t.Error("IS NULL on non-null")
	}
}

func TestLogicDetEval(t *testing.T) {
	tup := types.Tuple{types.Bool(true), types.Bool(false)}
	a, b := Col(0, "a"), Col(1, "b")
	if !mustEval(t, And(a, Not{b}), tup).AsBool() {
		t.Error("true AND NOT false")
	}
	if mustEval(t, And(a, b), tup).AsBool() {
		t.Error("true AND false")
	}
	if !mustEval(t, Or(b, a), tup).AsBool() {
		t.Error("false OR true")
	}
	if And() == nil || Or() == nil {
		t.Error("empty connectives")
	}
	if !mustEval(t, And(), tup).AsBool() {
		t.Error("empty AND is true")
	}
	if mustEval(t, Or(), tup).AsBool() {
		t.Error("empty OR is false")
	}
	// Short circuit: the erroring right side is never evaluated.
	bad := Div(CInt(1), CInt(0))
	if mustEval(t, And(b, Eq(bad, bad)), tup).AsBool() {
		t.Error("short-circuit AND")
	}
	if !mustEval(t, Or(a, Eq(bad, bad)), tup).AsBool() {
		t.Error("short-circuit OR")
	}
}

func TestIfDetEval(t *testing.T) {
	tup := types.Tuple{types.Int(1)}
	e := If{Cond: Eq(Col(0, "x"), CInt(1)), Then: CStr("one"), Else: CStr("other")}
	if mustEval(t, e, tup).AsString() != "one" {
		t.Error("then branch")
	}
	tup[0] = types.Int(2)
	if mustEval(t, e, tup).AsString() != "other" {
		t.Error("else branch")
	}
	if !strings.Contains(e.String(), "IF") {
		t.Error("if rendering")
	}
}

func TestLeastGreatest(t *testing.T) {
	tup := types.Tuple{types.Int(4), types.Int(2), types.Int(9)}
	cols := []Expr{Col(0, ""), Col(1, ""), Col(2, "")}
	if !types.Same(mustEval(t, Least(cols...), tup), types.Int(2)) {
		t.Error("least")
	}
	if !types.Same(mustEval(t, Greatest(cols...), tup), types.Int(9)) {
		t.Error("greatest")
	}
	if _, err := Least().Eval(tup); err == nil {
		t.Error("least() should error")
	}
	if _, err := (Greatest()).EvalRange(rangeval.CertainTuple(tup)); err == nil {
		t.Error("greatest() range should error")
	}
	if !strings.Contains(Least(cols...).String(), "least(") {
		t.Error("least rendering")
	}
}

func rv(lo, sg, hi int64) rangeval.V {
	return rangeval.New(types.Int(lo), types.Int(sg), types.Int(hi))
}

func TestRangeArithmetic(t *testing.T) {
	tup := rangeval.Tuple{rv(1, 2, 3), rv(-4, -3, -3)}
	a, b := Col(0, "a"), Col(1, "b")
	got := mustRange(t, Add(a, b), tup)
	if types.Compare(got.Lo, types.Int(-3)) != 0 || types.Compare(got.Hi, types.Int(0)) != 0 ||
		types.Compare(got.SG, types.Int(-1)) != 0 {
		t.Errorf("add range: %v", got)
	}
	got = mustRange(t, Sub(a, b), tup)
	if types.Compare(got.Lo, types.Int(4)) != 0 || types.Compare(got.Hi, types.Int(7)) != 0 {
		t.Errorf("sub range: %v", got)
	}
	got = mustRange(t, Mul(a, b), tup)
	// products: 1*-4=-4, 1*-3=-3, 3*-4=-12, 3*-3=-9 -> [-12, -3]
	if types.Compare(got.Lo, types.Int(-12)) != 0 || types.Compare(got.Hi, types.Int(-3)) != 0 {
		t.Errorf("mul range: %v", got)
	}
	if types.Compare(got.SG, types.Int(-6)) != 0 {
		t.Errorf("mul sg: %v", got.SG)
	}
}

func TestRangeDiv(t *testing.T) {
	tup := rangeval.Tuple{rv(4, 8, 8), rv(2, 2, 4)}
	got := mustRange(t, Div(Col(0, ""), Col(1, "")), tup)
	if got.Lo.AsFloat() != 1 || got.Hi.AsFloat() != 4 || got.SG.AsFloat() != 4 {
		t.Errorf("div range: %v", got)
	}
	// Divisor spanning zero with nonzero SG: full range.
	tup = rangeval.Tuple{rv(4, 8, 8), rv(-1, 2, 4)}
	got = mustRange(t, Div(Col(0, ""), Col(1, "")), tup)
	if got.Lo.Kind() != types.KindNegInf || got.Hi.Kind() != types.KindPosInf {
		t.Errorf("div by zero-spanning range should be unbounded: %v", got)
	}
	// Certainly zero divisor: error.
	tup = rangeval.Tuple{rv(4, 8, 8), rv(0, 0, 0)}
	if _, err := Div(Col(0, ""), Col(1, "")).EvalRange(tup); err == nil {
		t.Error("division by certain zero should error")
	}
	// Zero SG but nonzero possible: SG path errors.
	tup = rangeval.Tuple{rv(4, 8, 8), rv(0, 0, 4)}
	if _, err := Div(Col(0, ""), Col(1, "")).EvalRange(tup); err == nil {
		t.Error("division with zero SG should error")
	}
}

func TestRangeComparisons(t *testing.T) {
	a, b := Col(0, "a"), Col(1, "b")
	// Disjoint: a < b certainly.
	tup := rangeval.Tuple{rv(1, 2, 3), rv(5, 6, 9)}
	got := mustRange(t, Lt(a, b), tup)
	if !got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("certainly less: %v", got)
	}
	got = mustRange(t, Eq(a, b), tup)
	if got.Lo.AsBool() || got.Hi.AsBool() {
		t.Errorf("certainly not equal: %v", got)
	}
	// Overlapping: possibly equal, not certainly.
	tup = rangeval.Tuple{rv(1, 2, 5), rv(4, 6, 9)}
	got = mustRange(t, Eq(a, b), tup)
	if got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("possibly equal: %v", got)
	}
	if got.SG.AsBool() {
		t.Error("sg: 2 != 6")
	}
	// Certain equal values.
	tup = rangeval.Tuple{rv(7, 7, 7), rv(7, 7, 7)}
	got = mustRange(t, Eq(a, b), tup)
	if !got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("certainly equal: %v", got)
	}
	got = mustRange(t, Neq(a, b), tup)
	if got.Lo.AsBool() || got.Hi.AsBool() {
		t.Errorf("certainly not unequal: %v", got)
	}
	got = mustRange(t, Leq(a, b), tup)
	if !got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("7 <= 7 certain: %v", got)
	}
	// Geq/Gt coverage.
	tup = rangeval.Tuple{rv(5, 6, 9), rv(1, 2, 3)}
	if got = mustRange(t, Gt(a, b), tup); !got.Lo.AsBool() {
		t.Errorf("certainly greater: %v", got)
	}
	if got = mustRange(t, Geq(a, b), tup); !got.Lo.AsBool() {
		t.Errorf("certainly geq: %v", got)
	}
}

func TestRangeLogicAndNot(t *testing.T) {
	ct, cf := rangeval.CertTrue, rangeval.CertFalse
	mt := rangeval.MaybeTrue // [F/T/T]
	tup := rangeval.Tuple{ct, cf, mt}
	a, b, c := Col(0, ""), Col(1, ""), Col(2, "")
	got := mustRange(t, And(a, c), tup)
	if got.Lo.AsBool() || !got.Hi.AsBool() || !got.SG.AsBool() {
		t.Errorf("T AND maybe: %v", got)
	}
	got = mustRange(t, Or(b, c), tup)
	if got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("F OR maybe: %v", got)
	}
	got = mustRange(t, Not{c}, tup)
	if got.Lo.AsBool() || !got.Hi.AsBool() || got.SG.AsBool() {
		t.Errorf("NOT maybe: %v", got)
	}
	got = mustRange(t, Not{a}, tup)
	if got.Lo.AsBool() || got.Hi.AsBool() {
		t.Errorf("NOT certain true: %v", got)
	}
}

func TestRangeIf(t *testing.T) {
	// Uncertain condition takes min/max over branches.
	tup := rangeval.Tuple{rangeval.MaybeTrue, rv(1, 2, 3), rv(10, 20, 30)}
	e := If{Cond: Col(0, ""), Then: Col(1, ""), Else: Col(2, "")}
	got := mustRange(t, e, tup)
	if types.Compare(got.Lo, types.Int(1)) != 0 || types.Compare(got.Hi, types.Int(30)) != 0 {
		t.Errorf("if bounds: %v", got)
	}
	if types.Compare(got.SG, types.Int(2)) != 0 {
		t.Errorf("if sg should follow sg cond: %v", got)
	}
	// Certain condition is lazy: the else branch would divide by zero.
	lazyTup := rangeval.Tuple{rangeval.CertTrue, rv(1, 2, 3)}
	lazy := If{Cond: Col(0, ""), Then: Col(1, ""), Else: Div(CInt(1), CInt(0))}
	if _, err := lazy.EvalRange(lazyTup); err != nil {
		t.Errorf("certain-true if must not evaluate else: %v", err)
	}
	lazyTup[0] = rangeval.CertFalse
	lazy = If{Cond: Col(0, ""), Then: Div(CInt(1), CInt(0)), Else: Col(1, "")}
	if _, err := lazy.EvalRange(lazyTup); err != nil {
		t.Errorf("certain-false if must not evaluate then: %v", err)
	}
}

func TestRangeIsNull(t *testing.T) {
	tup := rangeval.Tuple{
		rangeval.Certain(types.Null()),
		rangeval.Certain(types.Int(1)),
		rangeval.New(types.Null(), types.Int(5), types.Int(9)),
	}
	got := mustRange(t, IsNull{Col(0, "")}, tup)
	if !got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("certainly null: %v", got)
	}
	got = mustRange(t, IsNull{Col(1, "")}, tup)
	if got.Lo.AsBool() || got.Hi.AsBool() {
		t.Errorf("certainly not null: %v", got)
	}
	got = mustRange(t, IsNull{Col(2, "")}, tup)
	if got.Lo.AsBool() || !got.Hi.AsBool() {
		t.Errorf("possibly null: %v", got)
	}
}

func TestRangeLeastGreatest(t *testing.T) {
	tup := rangeval.Tuple{rv(1, 2, 3), rv(0, 5, 9)}
	got := mustRange(t, Least(Col(0, ""), Col(1, "")), tup)
	if types.Compare(got.Lo, types.Int(0)) != 0 || types.Compare(got.Hi, types.Int(3)) != 0 ||
		types.Compare(got.SG, types.Int(2)) != 0 {
		t.Errorf("least range: %v", got)
	}
	got = mustRange(t, Greatest(Col(0, ""), Col(1, "")), tup)
	if types.Compare(got.Lo, types.Int(1)) != 0 || types.Compare(got.Hi, types.Int(9)) != 0 ||
		types.Compare(got.SG, types.Int(5)) != 0 {
		t.Errorf("greatest range: %v", got)
	}
}

func TestMapAttrsAndHelpers(t *testing.T) {
	e := And(Eq(Col(0, "a"), Col(3, "b")), Lt(Add(Col(1, "c"), CInt(1)), Col(0, "a")))
	shifted := ShiftAttrs(e, 10)
	attrs := Attrs(shifted)
	want := map[int]bool{10: true, 13: true, 11: true}
	if len(attrs) != 3 {
		t.Fatalf("attrs: %v", attrs)
	}
	for _, a := range attrs {
		if !want[a] {
			t.Errorf("unexpected attr %d", a)
		}
	}
	if MaxAttr(shifted) != 13 {
		t.Error("MaxAttr")
	}
	if MaxAttr(CInt(0)) != -1 {
		t.Error("MaxAttr of const")
	}
	cj := Conjuncts(e)
	if len(cj) != 2 {
		t.Errorf("conjuncts: %d", len(cj))
	}
	// Full node coverage of MapAttrs.
	all := If{
		Cond: IsNull{Col(0, "")},
		Then: Least(Col(1, ""), CInt(1)),
		Else: Not{Or(Col(2, ""), CBool(false))},
	}
	m := MapAttrs(all, func(a Attr) Attr { a.Idx++; return a })
	if MaxAttr(m) != 3 {
		t.Error("MapAttrs over all node types")
	}
}

func TestEquiPair(t *testing.T) {
	// split at 2: left attrs {0,1}, right attrs {2,3} (as 0,1 on the right)
	e := Eq(Col(0, "l"), Col(3, "r"))
	l, r, ok := EquiPair(e, 2)
	if !ok || l != 0 || r != 1 {
		t.Errorf("EquiPair: %d %d %v", l, r, ok)
	}
	e2 := Eq(Col(2, "r"), Col(1, "l"))
	l, r, ok = EquiPair(e2, 2)
	if !ok || l != 1 || r != 0 {
		t.Errorf("EquiPair flipped: %d %d %v", l, r, ok)
	}
	if _, _, ok := EquiPair(Lt(Col(0, ""), Col(2, "")), 2); ok {
		t.Error("non-eq should not be an equi pair")
	}
	if _, _, ok := EquiPair(Eq(Col(0, ""), Col(1, "")), 2); ok {
		t.Error("same-side eq should not be an equi pair")
	}
	if _, _, ok := EquiPair(Eq(Col(0, ""), CInt(3)), 2); ok {
		t.Error("attr=const should not be an equi pair")
	}
}

// TestUnknownBooleanCondition: a value read as a condition is normalized,
// so the unknown boolean [-inf/true/+inf] reads as uncertain (F,T,T) —
// its selected-guess world keeps the row — whether it is read directly,
// under NOT NOT, under AND/OR or as an If condition, row by row or by the
// range-vector program.
func TestUnknownBooleanCondition(t *testing.T) {
	b := Col(0, "b")
	cols := []rangeval.Col{rangeval.ColFromDense([]rangeval.V{rangeval.Full(types.Bool(true))})}
	want := Truth{Lo: false, SG: true, Hi: true}
	for _, e := range []Expr{b, Not{E: Not{E: b}}, And(b, CBool(true)), Or(b, CBool(false))} {
		v := mustRange(t, e, rangeval.Tuple{rangeval.Full(types.Bool(true))})
		if got := TruthOf(v); got != want {
			t.Errorf("%s: TruthOf(EvalRange) = %+v, want %+v", e, got, want)
		}
		p, _ := CompileRange(e)
		out := make([]Truth, 1)
		if err := p.TruthInto(cols, 1, nil, out); err != nil || out[0] != want {
			t.Errorf("%s: TruthInto = %+v, %v; want %+v", e, out[0], err, want)
		}
	}
	// An If over it takes both branches, the Then branch in the SG world.
	v := mustRange(t, If{Cond: b, Then: CInt(1), Else: CInt(2)}, rangeval.Tuple{rangeval.Full(types.Bool(true))})
	if !sameV(v, rangeval.New(types.Int(1), types.Int(1), types.Int(2))) {
		t.Errorf("IF b THEN 1 ELSE 2 = %v", v)
	}
}

// TestRangeOverflowReproducers: with x = [0/5/MaxInt64-10], x + x and x * 3
// saturate their upper bound to +inf instead of wrapping below the SG,
// and an SG that overflows is an integer overflow error.
func TestRangeOverflowReproducers(t *testing.T) {
	x := rangeval.New(types.Int(0), types.Int(5), types.Int(math.MaxInt64-10))
	tup := rangeval.Tuple{x}
	a := Col(0, "x")
	want := rangeval.New(types.Int(0), types.Int(10), types.PosInf())
	if got := mustRange(t, Add(a, a), tup); !sameV(got, want) {
		t.Errorf("x + x = %v, want %v", got, want)
	}
	want = rangeval.New(types.Int(0), types.Int(15), types.PosInf())
	if got := mustRange(t, Mul(a, CInt(3)), tup); !sameV(got, want) {
		t.Errorf("x * 3 = %v, want %v", got, want)
	}
	huge := rangeval.Tuple{rangeval.New(types.Int(0), types.Int(math.MaxInt64), types.Int(math.MaxInt64))}
	if _, err := Add(a, CInt(1)).EvalRange(huge); err == nil || !strings.Contains(err.Error(), "integer overflow") {
		t.Errorf("SG overflow: error %v", err)
	}
}

// TestRangeArithAtInt64Extremes: for every operator, Neg (as 0 - x)
// included, over triples whose corners sit at and near MinInt64 and
// MaxInt64, RangeArith either fails because the SG overflows, or returns
// bounds that contain the exact result of every combination of operand
// values drawn from the corners, computed without overflow.
func TestRangeArithAtInt64Extremes(t *testing.T) {
	ints := []int64{math.MinInt64, math.MinInt64 + 1, -3, 0, 2, math.MaxInt64 - 1, math.MaxInt64}
	var triples []rangeval.V
	for _, lo := range ints {
		for _, hi := range ints {
			if lo <= hi {
				triples = append(triples, rangeval.New(types.Int(lo), types.Int(lo), types.Int(hi)),
					rangeval.New(types.Int(lo), types.Int(hi), types.Int(hi)))
			}
		}
	}
	exact := map[ArithOp]func(z, x, y *big.Int) *big.Int{OpAdd: (*big.Int).Add, OpSub: (*big.Int).Sub, OpMul: (*big.Int).Mul}
	within := func(v types.Value, z *big.Int, dir int) bool {
		switch v.Kind() {
		case types.KindPosInf:
			return dir > 0
		case types.KindNegInf:
			return dir < 0
		}
		return big.NewInt(v.AsInt()).Cmp(z)*dir >= 0
	}
	zero := rangeval.Certain(types.Int(0))
	for _, a := range triples {
		for _, b := range triples {
			for op, f := range exact {
				for _, pair := range [][2]rangeval.V{{a, b}, {zero, b}} {
					l, r := pair[0], pair[1]
					got, err := RangeArith(op, &l, &r)
					sg := f(new(big.Int), big.NewInt(l.SG.AsInt()), big.NewInt(r.SG.AsInt()))
					if err != nil {
						if sg.IsInt64() || !strings.Contains(err.Error(), "integer overflow") {
							t.Fatalf("%v %s %v: error %v, exact SG %s", l, op, r, err, sg)
						}
						continue
					}
					if !sg.IsInt64() || !types.Same(got.SG, types.Int(sg.Int64())) {
						t.Fatalf("%v %s %v = %v, exact SG %s", l, op, r, got, sg)
					}
					for _, x := range []types.Value{l.Lo, l.SG, l.Hi} {
						for _, y := range []types.Value{r.Lo, r.SG, r.Hi} {
							z := f(new(big.Int), big.NewInt(x.AsInt()), big.NewInt(y.AsInt()))
							if !within(got.Lo, z, -1) || !within(got.Hi, z, 1) {
								t.Fatalf("%v %s %v = %v, which misses %s = %v %s %v", l, op, r, got, z, x, op, y)
							}
						}
					}
				}
			}
		}
	}
}
