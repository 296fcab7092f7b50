package rangeval

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/audb/audb/internal/types"
)

// TestVLayout pins a triple at three 32-byte Values (types pins those).
func TestVLayout(t *testing.T) {
	if size := unsafe.Sizeof(V{}); size > 96 {
		t.Errorf("rangeval.V is %d bytes, want at most 96", size)
	}
}

// TestColBuilderGrow: rows reserved in one call are stored without spare
// capacity beyond the allocator's size-class rounding, also across the
// promotion to dense; reserving batch by batch grows geometrically, with
// a few reallocations rather than one per batch.
func TestColBuilderGrow(t *testing.T) {
	const n = 600
	for _, promoteAt := range []int{-1, 0, n / 2} {
		var b ColBuilder
		b.Grow(n)
		for i := 0; i < n; i++ {
			v := Certain(types.Int(int64(i)))
			if i == promoteAt {
				v = New(types.Int(0), types.Int(int64(i)), types.Int(n))
			}
			b.Append(v)
		}
		if c := max(cap(b.flat), cap(b.dense)); c > n+n/8 {
			t.Errorf("promote at %d: capacity %d for %d reserved rows", promoteAt, c, n)
		}
	}
	var g ColBuilder
	reallocs := 0
	for batch := 0; batch < 1000; batch++ {
		before := cap(g.flat)
		g.Grow(10)
		if cap(g.flat) != before {
			reallocs++
		}
		for i := 0; i < 10; i++ {
			g.Append(Certain(types.Int(1)))
		}
	}
	if reallocs > 40 {
		t.Errorf("%d reallocations over 1000 reserved batches; want geometric growth", reallocs)
	}
}

func TestCertain(t *testing.T) {
	v := Certain(types.Int(5))
	if !v.IsCertain() || !v.Valid() {
		t.Error("Certain not certain/valid")
	}
	if v.String() != "5" {
		t.Errorf("certain renders as %q", v.String())
	}
}

func TestNewNormalizes(t *testing.T) {
	v := New(types.Int(5), types.Int(2), types.Int(3))
	if !v.Valid() {
		t.Errorf("New produced invalid range %v", v)
	}
	if types.Compare(v.Lo, types.Int(2)) != 0 {
		t.Errorf("lo should widen to sg, got %v", v.Lo)
	}
	v = New(types.Int(1), types.Int(4), types.Int(2))
	if !v.Valid() || types.Compare(v.Hi, types.Int(4)) != 0 {
		t.Errorf("hi should widen to sg, got %v", v)
	}
}

func TestChecked(t *testing.T) {
	if _, err := Checked(types.Int(3), types.Int(2), types.Int(4)); err == nil {
		t.Error("out-of-order bounds should error")
	}
	if _, err := Checked(types.Int(1), types.Int(2), types.Int(1)); err == nil {
		t.Error("hi < sg should error")
	}
	v, err := Checked(types.Int(1), types.Int(2), types.Int(3))
	if err != nil || !v.Valid() {
		t.Error("valid bounds rejected")
	}
}

func TestFull(t *testing.T) {
	v := Full(types.String("x"))
	if !v.Valid() {
		t.Error("Full invalid")
	}
	if !v.Contains(types.Int(123)) || !v.Contains(types.String("zzz")) || !v.Contains(types.Null()) {
		t.Error("Full should contain everything")
	}
	if v.IsCertain() {
		t.Error("Full should not be certain")
	}
}

func TestContainsOverlaps(t *testing.T) {
	a := New(types.Int(1), types.Int(2), types.Int(5))
	if !a.Contains(types.Int(1)) || !a.Contains(types.Int(5)) || a.Contains(types.Int(6)) || a.Contains(types.Int(0)) {
		t.Error("Contains endpoints broken")
	}
	b := New(types.Int(5), types.Int(6), types.Int(9))
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("touching intervals should overlap")
	}
	c := New(types.Int(6), types.Int(7), types.Int(9))
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint intervals should not overlap")
	}
}

func TestUnion(t *testing.T) {
	a := New(types.Int(1), types.Int(2), types.Int(5))
	b := New(types.Int(0), types.Int(4), types.Int(9))
	u := a.Union(b)
	if types.Compare(u.Lo, types.Int(0)) != 0 || types.Compare(u.Hi, types.Int(9)) != 0 {
		t.Errorf("union bounds wrong: %v", u)
	}
	if types.Compare(u.SG, types.Int(2)) != 0 {
		t.Error("union should keep receiver's SG")
	}
	if !u.Valid() {
		t.Error("union invalid")
	}
}

// TestWidenIsUnion: Widen leaves in v exactly what v.Union(o) returns,
// every component the same kind and bits, over ints, floats, -0 against
// 0, NaN, infinities, sentinels, a string and null.
func TestWidenIsUnion(t *testing.T) {
	vals := []types.Value{
		types.Int(0), types.Float(math.Copysign(0, -1)), types.Float(0), types.Int(3), types.Float(2.5),
		types.Float(math.NaN()), types.Float(math.Inf(1)), types.NegInf(), types.PosInf(), types.String("s"), types.Null(),
	}
	for _, vl := range vals {
		for _, vh := range vals {
			for _, ol := range vals {
				for _, oh := range vals {
					v, o := V{Lo: vl, SG: vl, Hi: vh}, V{Lo: ol, SG: oh, Hi: oh}
					want := v.Union(o)
					v.Widen(&o)
					if !types.Same(v.Lo, want.Lo) || !types.Same(v.SG, want.SG) || !types.Same(v.Hi, want.Hi) {
						t.Fatalf("Widen %v by %v: %v, Union %v", V{Lo: vl, SG: vl, Hi: vh}, o, v, want)
					}
				}
			}
		}
	}
}

func TestStringRendering(t *testing.T) {
	v := New(types.Int(1), types.Int(2), types.Int(3))
	if v.String() != "[1/2/3]" {
		t.Errorf("render %q", v.String())
	}
}

func TestBoolConstants(t *testing.T) {
	for _, c := range []V{CertTrue, CertFalse, MaybeTrue, MaybeFalse} {
		if !c.Valid() {
			t.Errorf("constant %v invalid", c)
		}
	}
	if !CertTrue.IsCertain() || !CertFalse.IsCertain() {
		t.Error("certain constants not certain")
	}
	if MaybeTrue.IsCertain() || MaybeFalse.IsCertain() {
		t.Error("maybe constants should be uncertain")
	}
}

func TestTupleBasics(t *testing.T) {
	dt := types.Tuple{types.Int(1), types.String("a")}
	rt := CertainTuple(dt)
	if !rt.IsCertain() {
		t.Error("CertainTuple not certain")
	}
	if !rt.SG().Equal(dt) {
		t.Error("SG extraction")
	}
	if !rt.Bounds(dt) {
		t.Error("certain tuple must bound its own SG")
	}
	if rt.Bounds(types.Tuple{types.Int(2), types.String("a")}) {
		t.Error("should not bound different tuple")
	}
	if rt.Bounds(types.Tuple{types.Int(1)}) {
		t.Error("arity mismatch should not bound")
	}
	cl := rt.Clone()
	cl[0] = Full(types.Int(0))
	if !rt.IsCertain() {
		t.Error("Clone aliases")
	}
}

func TestTuplePredicates(t *testing.T) {
	a := Tuple{New(types.Int(1), types.Int(2), types.Int(3)), Certain(types.String("x"))}
	b := Tuple{New(types.Int(3), types.Int(4), types.Int(5)), Certain(types.String("x"))}
	c := Tuple{New(types.Int(4), types.Int(4), types.Int(5)), Certain(types.String("x"))}
	if !a.Overlaps(b) {
		t.Error("a ≃ b should hold (attribute ranges touch)")
	}
	if a.Overlaps(c) {
		t.Error("a ≃ c should not hold")
	}
	if a.CertainlyEqual(a) {
		t.Error("a has uncertain attribute; a ≡ a must be false")
	}
	d := Tuple{Certain(types.Int(7)), Certain(types.String("y"))}
	if !d.CertainlyEqual(d.Clone()) {
		t.Error("certain equal tuples: d ≡ d")
	}
	if a.Overlaps(Tuple{Certain(types.Int(2))}) {
		t.Error("arity mismatch overlap")
	}
	if d.CertainlyEqual(Tuple{Certain(types.Int(7))}) {
		t.Error("arity mismatch certain-equal")
	}
}

func TestTupleUnionProjectConcatKeys(t *testing.T) {
	a := Tuple{New(types.Int(1), types.Int(2), types.Int(3)), Certain(types.Int(9))}
	b := Tuple{New(types.Int(0), types.Int(5), types.Int(7)), Certain(types.Int(9))}
	u := a.Union(b)
	if types.Compare(u[0].Lo, types.Int(0)) != 0 || types.Compare(u[0].Hi, types.Int(7)) != 0 {
		t.Error("tuple union bounds")
	}
	p := a.Project([]int{1})
	if len(p) != 1 || types.Compare(p[0].SG, types.Int(9)) != 0 {
		t.Error("project")
	}
	cc := a.Concat(b)
	if len(cc) != 4 {
		t.Error("concat")
	}
	if a.Key() == b.Key() {
		t.Error("distinct triple tuples must have distinct keys")
	}
	if a.SGKey() == b.SGKey() {
		t.Error("distinct SG tuples must have distinct SG keys")
	}
	b2 := Tuple{New(types.Int(-1), types.Int(2), types.Int(99)), Certain(types.Int(9))}
	if a.SGKey() != b2.SGKey() {
		t.Error("same SG values must share SG key")
	}
	if a.String() == "" {
		t.Error("empty render")
	}
}

// Property: Union always bounds both inputs' intervals; New always valid.
func TestRangePropertyQuick(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rv := func() V {
		x, y, z := int64(r.Intn(40)-20), int64(r.Intn(40)-20), int64(r.Intn(40)-20)
		return New(types.Int(x), types.Int(y), types.Int(z))
	}
	f := func() bool {
		a, b := rv(), rv()
		if !a.Valid() || !b.Valid() {
			return false
		}
		u := a.Union(b)
		return u.Valid() &&
			u.Contains(a.Lo) && u.Contains(a.Hi) &&
			u.Contains(b.Lo) && u.Contains(b.Hi) &&
			(a.Overlaps(b) == b.Overlaps(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestCheckedErrorPaths pins down Checked's rejection behavior: which
// orderings error, what the error carries, and that the returned V on
// error is the zero (all-NULL) value rather than a half-built triple.
func TestCheckedErrorPaths(t *testing.T) {
	cases := []struct {
		name       string
		lo, sg, hi types.Value
		wantErr    bool
	}{
		{"ordered", types.Int(1), types.Int(2), types.Int(3), false},
		{"all equal", types.Int(7), types.Int(7), types.Int(7), false},
		{"lo equals sg", types.Int(2), types.Int(2), types.Int(9), false},
		{"sg equals hi", types.Int(1), types.Int(9), types.Int(9), false},
		{"sg below lo", types.Int(3), types.Int(2), types.Int(4), true},
		{"hi below sg", types.Int(1), types.Int(2), types.Int(1), true},
		{"fully reversed", types.Int(9), types.Int(5), types.Int(1), true},
		// Infinities are the extreme elements of the total order.
		{"infinite bounds", types.NegInf(), types.Int(0), types.PosInf(), false},
		{"posinf lower bound", types.PosInf(), types.Int(0), types.PosInf(), true},
		{"neginf upper bound", types.NegInf(), types.Int(0), types.NegInf(), true},
		// NULL sorts between -inf and every non-null domain value.
		{"all null", types.Null(), types.Null(), types.Null(), false},
		{"null lower bound", types.Null(), types.Int(5), types.String("z"), false},
		{"null guess above int", types.Int(1), types.Null(), types.Int(2), true},
		// Mixed types follow the kind order null < bool < numeric < string.
		{"bool below int below string", types.Bool(false), types.Int(3), types.String("a"), false},
		{"string below int", types.String("a"), types.Int(3), types.PosInf(), true},
		{"int and float compare numerically", types.Int(1), types.Float(1.5), types.Int(2), false},
		{"float above int guess", types.Float(2.5), types.Int(2), types.Int(3), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v, err := Checked(c.lo, c.sg, c.hi)
			if c.wantErr {
				if err == nil {
					t.Fatalf("Checked(%v, %v, %v): want error, got %v", c.lo, c.sg, c.hi, v)
				}
				if !strings.Contains(err.Error(), "bounds out of order") {
					t.Errorf("error should name the violation, got %q", err)
				}
				if zero := types.Null(); !types.Same(v.Lo, zero) || !types.Same(v.SG, zero) || !types.Same(v.Hi, zero) {
					t.Errorf("on error Checked must return the zero V, got %v", v)
				}
				return
			}
			if err != nil {
				t.Fatalf("Checked(%v, %v, %v): unexpected error %v", c.lo, c.sg, c.hi, err)
			}
			if !v.Valid() {
				t.Errorf("accepted triple %v is not Valid", v)
			}
		})
	}
}

// TestValidNullAndMixedKinds exercises Valid directly on triples the
// constructors cannot produce, since the executor trusts Valid when
// auditing decoded or hand-assembled values.
func TestValidNullAndMixedKinds(t *testing.T) {
	null, one, two := types.Null(), types.Int(1), types.Int(2)
	cases := []struct {
		name string
		v    V
		want bool
	}{
		{"zero value is all-NULL and valid", V{}, true},
		{"certain NULL", Certain(null), true},
		{"null lo under numeric", V{Lo: null, SG: one, Hi: two}, true},
		{"null hi above numeric", V{Lo: one, SG: two, Hi: null}, false},
		{"null guess between numerics", V{Lo: one, SG: null, Hi: two}, false},
		{"null guess above neginf", V{Lo: types.NegInf(), SG: null, Hi: one}, true},
		{"bool below string", V{Lo: types.Bool(true), SG: types.Int(0), Hi: types.String("")}, true},
		{"string below bool", V{Lo: types.String(""), SG: types.String("a"), Hi: types.Bool(true)}, false},
		{"float between ints", V{Lo: types.Int(1), SG: types.Float(1.25), Hi: types.Int(2)}, true},
		{"equal int and float", V{Lo: types.Int(1), SG: types.Float(1), Hi: types.Int(1)}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.v.Valid(); got != c.want {
				t.Errorf("Valid(%v) = %v, want %v", c.v, got, c.want)
			}
		})
	}
}
