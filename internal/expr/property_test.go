package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// genExpr builds a random numeric-or-boolean expression over nvars integer
// variables. Division is included but guarded by the error-skipping logic in
// the property check.
func genExpr(r *rand.Rand, nvars, depth int, wantBool bool) Expr {
	if depth <= 0 {
		if wantBool {
			return CBool(r.Intn(2) == 0)
		}
		if r.Intn(2) == 0 {
			return Col(r.Intn(nvars), "")
		}
		return CInt(int64(r.Intn(11) - 5))
	}
	if wantBool {
		switch r.Intn(5) {
		case 0:
			return And(genExpr(r, nvars, depth-1, true), genExpr(r, nvars, depth-1, true))
		case 1:
			return Or(genExpr(r, nvars, depth-1, true), genExpr(r, nvars, depth-1, true))
		case 2:
			return Not{genExpr(r, nvars, depth-1, true)}
		default:
			ops := []CmpOp{OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq}
			return Cmp{
				Op: ops[r.Intn(len(ops))],
				L:  genExpr(r, nvars, depth-1, false),
				R:  genExpr(r, nvars, depth-1, false),
			}
		}
	}
	switch r.Intn(6) {
	case 0:
		return Add(genExpr(r, nvars, depth-1, false), genExpr(r, nvars, depth-1, false))
	case 1:
		return Sub(genExpr(r, nvars, depth-1, false), genExpr(r, nvars, depth-1, false))
	case 2:
		return Mul(genExpr(r, nvars, depth-1, false), genExpr(r, nvars, depth-1, false))
	case 3:
		return If{
			Cond: genExpr(r, nvars, depth-1, true),
			Then: genExpr(r, nvars, depth-1, false),
			Else: genExpr(r, nvars, depth-1, false),
		}
	case 4:
		return Least(genExpr(r, nvars, depth-1, false), genExpr(r, nvars, depth-1, false))
	default:
		return Greatest(genExpr(r, nvars, depth-1, false), genExpr(r, nvars, depth-1, false))
	}
}

// TestTheorem1BoundPreservation is the paper's Theorem 1: if a range
// valuation bounds an incomplete valuation, the range result of an
// expression bounds all deterministic outcomes.
func TestTheorem1BoundPreservation(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const nvars = 3
	trials := 3000
	checked := 0
	for trial := 0; trial < trials; trial++ {
		e := genExpr(r, nvars, 3, r.Intn(2) == 0)

		// Build an incomplete valuation: each variable has 1-3 possible
		// integer values.
		possible := make([][]types.Value, nvars)
		for i := range possible {
			n := 1 + r.Intn(3)
			for j := 0; j < n; j++ {
				possible[i] = append(possible[i], types.Int(int64(r.Intn(13)-6)))
			}
		}
		// The SG world picks one possible value per variable.
		sg := make(types.Tuple, nvars)
		rt := make(rangeval.Tuple, nvars)
		for i, ps := range possible {
			sg[i] = ps[r.Intn(len(ps))]
			lo, hi := ps[0], ps[0]
			for _, p := range ps[1:] {
				lo = types.Min(lo, p)
				hi = types.Max(hi, p)
			}
			rt[i] = rangeval.New(lo, sg[i], hi)
		}

		rangeRes, err := e.EvalRange(rt)
		if err != nil {
			continue // partial operation (division etc); theorem presumes definedness
		}
		if !rangeRes.Valid() {
			t.Fatalf("invalid range result %v for %s", rangeRes, e)
		}

		// Enumerate all worlds (cross product of possible values).
		worlds := [][]types.Value{{}}
		for _, ps := range possible {
			var next [][]types.Value
			for _, w := range worlds {
				for _, p := range ps {
					nw := append(append([]types.Value{}, w...), p)
					next = append(next, nw)
				}
			}
			worlds = next
		}
		allOK := true
		for _, w := range worlds {
			dv, err := e.Eval(types.Tuple(w))
			if err != nil {
				allOK = false
				break
			}
			if !rangeRes.Contains(dv) {
				t.Fatalf("bound violation: expr %s\n  world %v -> %v\n  range %v (ranges %v)",
					e, w, dv, rangeRes, rt)
			}
		}
		if !allOK {
			continue
		}
		// SG component must equal the deterministic result in the SG world.
		dv, err := e.Eval(sg)
		if err == nil && types.Compare(dv, rangeRes.SG) != 0 {
			t.Fatalf("SG mismatch: expr %s sg world %v -> %v but range sg %v",
				e, sg, dv, rangeRes.SG)
		}
		checked++
	}
	if checked < trials/2 {
		t.Fatalf("too few effective trials: %d of %d", checked, trials)
	}
}

// pointAlphabet is the value domain of TestPointShortcutMatchesCorners:
// wrapping ints, signed zeros, NaN, float and sentinel infinities, null,
// strings and ints beside the equal float.
var pointAlphabet = []types.Value{
	types.Int(0), types.Int(1), types.Int(-3), types.Int(math.MaxInt64), types.Int(math.MinInt64),
	types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(1), types.Float(-2.5),
	types.Float(math.NaN()), types.Float(math.Inf(1)), types.Float(math.Inf(-1)), types.Float(1e308),
	types.PosInf(), types.NegInf(), types.Null(), types.String("a"), types.Bool(true),
}

// randTriple draws a point, a Compare-certain triple whose components
// differ in representation (an int and the equal float, or -0 and 0), or a
// genuine range whose corners are sorted under the total order.
func randTriple(r *rand.Rand) rangeval.V {
	v := pointAlphabet[r.Intn(len(pointAlphabet))]
	switch r.Intn(4) {
	case 0:
		switch v.Kind() {
		case types.KindInt:
			return rangeval.New(v, types.Float(float64(v.AsInt())), v)
		case types.KindFloat:
			if v.AsFloat() == 0 {
				return rangeval.New(types.Float(math.Copysign(0, -1)), types.Float(0), types.Float(math.Copysign(0, -1)))
			}
		}
		return rangeval.Certain(v)
	case 1:
		cs := []types.Value{v, pointAlphabet[r.Intn(len(pointAlphabet))], pointAlphabet[r.Intn(len(pointAlphabet))]}
		slices.SortFunc(cs, types.Compare)
		return rangeval.New(cs[0], cs[1], cs[2])
	}
	return rangeval.Certain(v)
}

// sameV reports whether two range values are identical bit for bit.
func sameV(a, b rangeval.V) bool {
	return types.Same(a.Lo, b.Lo) && types.Same(a.SG, b.SG) && types.Same(a.Hi, b.Hi)
}

// TestPointShortcutMatchesCorners: RangeAdd, RangeSub and RangeMul take a
// shortcut when both operands are points by representation. It must return
// exactly what the corner rule returns — value bits and error text — for
// every operand pair, points or not.
func TestPointShortcutMatchesCorners(t *testing.T) {
	ops := []struct {
		name          string
		fast, corners func(a, b rangeval.V) (rangeval.V, error)
	}{
		{"+", RangeAdd, rangeAddCorners},
		{"-", RangeSub, func(a, b rangeval.V) (rangeval.V, error) {
			nb, err := rangeNeg(b)
			if err != nil {
				return rangeval.V{}, err
			}
			return rangeAddCorners(a, nb)
		}},
		{"*", RangeMul, rangeMulCorners},
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		a, b := randTriple(r), randTriple(r)
		for _, op := range ops {
			got, gerr := op.fast(a, b)
			want, werr := op.corners(a, b)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !sameV(got, want) {
				t.Fatalf("[%#v] %s [%#v] = %#v, %v; corner rule %#v, %v", a, op.name, b, got, gerr, want, werr)
			}
		}
	}
}
