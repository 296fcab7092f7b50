package types

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNegInf: "neginf", KindNull: "null", KindBool: "bool",
		KindInt: "int", KindFloat: "float", KindString: "string",
		KindPosInf: "posinf",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null().IsNull() {
		t.Error("Null() not null")
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value is not null")
	}
	if Bool(true).Kind() != KindBool || !Bool(true).AsBool() {
		t.Error("Bool(true) broken")
	}
	if Bool(false).AsBool() {
		t.Error("Bool(false).AsBool() = true")
	}
	if Int(7).AsInt() != 7 {
		t.Error("Int roundtrip")
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Error("Float roundtrip")
	}
	if String("xy").AsString() != "xy" {
		t.Error("String roundtrip")
	}
	if !Int(3).IsNumeric() || !Float(3).IsNumeric() || String("a").IsNumeric() {
		t.Error("IsNumeric misclassifies")
	}
	if !NegInf().IsInf() || !PosInf().IsInf() || Int(0).IsInf() {
		t.Error("IsInf misclassifies")
	}
	if Float(3.9).AsInt() != 3 {
		t.Error("AsInt truncation")
	}
	if Bool(true).AsInt() != 1 || Bool(false).AsInt() != 0 {
		t.Error("bool AsInt")
	}
	if Bool(true).AsFloat() != 1 || Bool(false).AsFloat() != 0 {
		t.Error("bool AsFloat")
	}
	if !math.IsInf(NegInf().AsFloat(), -1) || !math.IsInf(PosInf().AsFloat(), 1) {
		t.Error("inf AsFloat")
	}
	if Null().AsInt() != 0 || Null().AsFloat() != 0 {
		t.Error("null numeric coercion should be zero")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Int(-4), "-4"},
		{Float(1.5), "1.5"},
		{String("hi"), "hi"},
		{NegInf(), "-inf"},
		{PosInf(), "+inf"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%v.String() = %q want %q", c.v.Kind(), got, c.want)
		}
	}
	if String("hello").AsString() != "hello" {
		t.Error("AsString on string")
	}
	if Int(2).AsString() != "2" {
		t.Error("AsString on non-string should render")
	}
}

func TestCompareTotalOrderAcrossKinds(t *testing.T) {
	asc := []Value{NegInf(), Null(), Bool(false), Bool(true), Int(-5), Int(0),
		Float(0.5), Int(1), Float(1.5), String("a"), String("b"), PosInf()}
	for i := range asc {
		for j := range asc {
			got := Compare(asc[i], asc[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			// Int(0) and Float(0.5) etc are strictly ordered; equal
			// positions only at i==j here.
			if got != want {
				t.Errorf("Compare(%v,%v) = %d want %d", asc[i], asc[j], got, want)
			}
		}
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("Int(2) != Float(2.0)")
	}
	if Compare(Float(1.5), Int(2)) != -1 {
		t.Error("1.5 < 2 fails")
	}
	if Compare(Int(3), Float(2.5)) != 1 {
		t.Error("3 > 2.5 fails")
	}
	if !Equal(Int(2), Float(2)) || Equal(Int(2), Int(3)) {
		t.Error("Equal broken")
	}
	if !Less(Int(1), Int(2)) || Less(Int(2), Int(1)) {
		t.Error("Less broken")
	}
}

func TestMinMax(t *testing.T) {
	if Min(Int(3), Int(5)) != Int(3) || Max(Int(3), Int(5)) != Int(5) {
		t.Error("Min/Max ints")
	}
	if Min(String("b"), Int(7)).Kind() != KindInt {
		t.Error("numeric < string in total order")
	}
	if Max(NegInf(), Null()).Kind() != KindNull {
		t.Error("null > -inf")
	}
}

func randomValue(r *rand.Rand) Value {
	switch r.Intn(7) {
	case 0:
		return Null()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		return Int(int64(r.Intn(21) - 10))
	case 3:
		return Float(float64(r.Intn(200)-100) / 4)
	case 4:
		return String(string(rune('a' + r.Intn(5))))
	case 5:
		return NegInf()
	default:
		return PosInf()
	}
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		// antisymmetry
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		// reflexivity
		if Compare(a, a) != 0 {
			return false
		}
		// transitivity of <=
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return v
	}
	if got := mustV(Add(Int(2), Int(3))); got != Int(5) {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(Int(2), Float(0.5))); got != Float(2.5) {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Sub(Int(2), Int(5))); got != Int(-3) {
		t.Errorf("2-5 = %v", got)
	}
	if got := mustV(Mul(Int(4), Int(-3))); got != Int(-12) {
		t.Errorf("4*-3 = %v", got)
	}
	if got := mustV(Mul(Float(0.5), Int(8))); got != Float(4) {
		t.Errorf("0.5*8 = %v", got)
	}
	if got := mustV(Div(Int(7), Int(2))); got != Float(3.5) {
		t.Errorf("7/2 = %v", got)
	}
	if got := mustV(Neg(Float(1.5))); got != Float(-1.5) {
		t.Errorf("-1.5 = %v", got)
	}
	if got := mustV(Neg(Int(4))); got != Int(-4) {
		t.Errorf("neg 4 = %v", got)
	}
}

// TestFloatFastPath: Add and Mul on two floats take a first branch that
// must return exactly what the general path returns, kind and bits
// included (the sign of zero, subnormals, overflow to infinity).
func TestFloatFastPath(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.2, 1e-3, 3.5, -2.25,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-310, -1e-310,
		1e308, -1e308, 1 << 53, -(1 << 53),
	}
	ops := []struct {
		name          string
		fast, general func(a, b Value) (Value, error)
	}{
		{"+", Add, addGeneral},
		{"*", Mul, mulGeneral},
	}
	for _, op := range ops {
		for _, x := range vals {
			for _, y := range vals {
				got, gerr := op.fast(Float(x), Float(y))
				want, werr := op.general(Float(x), Float(y))
				if gerr != nil || werr != nil {
					t.Fatalf("%g %s %g: errors %v, %v", x, op.name, y, gerr, werr)
				}
				if !Same(got, want) {
					t.Errorf("%g %s %g = %#v, general path %#v", x, op.name, y, got, want)
				}
			}
		}
	}
}

// TestNumericFastPath: the int×int, int×float and float×int branches of
// Add and Mul return exactly what the general path returns — kind, bits
// and error text — over overflowing ints, signed zeros, NaN, float and
// sentinel infinities, null and strings. An int pair whose exact result
// leaves int64 no longer wraps: both paths report an *ErrOverflow on the
// side it leaves.
func TestNumericFastPath(t *testing.T) {
	vals := []Value{
		Int(0), Int(1), Int(-1), Int(7), Int(math.MaxInt64), Int(math.MinInt64),
		Int(math.MaxInt64 - 1), Int(math.MinInt64 + 1), Int(1 << 40),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-2.5), Float(math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxFloat64), Float(1e-310),
		PosInf(), NegInf(), Null(), String("a"), Bool(true),
	}
	ops := []struct {
		name          string
		fast, general func(a, b Value) (Value, error)
	}{
		{"+", Add, addGeneral},
		{"*", Mul, mulGeneral},
	}
	for _, op := range ops {
		for _, x := range vals {
			for _, y := range vals {
				got, gerr := op.fast(x, y)
				want, werr := op.general(x, y)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) {
					t.Fatalf("%#v %s %#v: error %v, general path %v", x, op.name, y, gerr, werr)
				}
				if !Same(got, want) {
					t.Errorf("%#v %s %#v = %#v, general path %#v", x, op.name, y, got, want)
				}
				if x.Kind() != KindInt || y.Kind() != KindInt {
					continue
				}
				exact := new(big.Int)
				if op.name == "+" {
					exact.Add(big.NewInt(x.AsInt()), big.NewInt(y.AsInt()))
				} else {
					exact.Mul(big.NewInt(x.AsInt()), big.NewInt(y.AsInt()))
				}
				checkOverflow(t, x.String()+" "+op.name+" "+y.String(), got, gerr, exact)
			}
		}
	}
}

// checkOverflow asserts that v, err is the exact int64 result, or an
// *ErrOverflow on the side the exact result leaves int64.
func checkOverflow(t *testing.T, what string, v Value, err error, exact *big.Int) {
	t.Helper()
	if exact.IsInt64() {
		if err != nil || !Same(v, Int(exact.Int64())) {
			t.Errorf("%s = %#v, %v; want %s", what, v, err, exact)
		}
		return
	}
	o, ok := err.(*ErrOverflow)
	if !ok || o.Sign != exact.Sign() || !strings.Contains(err.Error(), "integer overflow") {
		t.Errorf("%s = %#v, %v; want an integer overflow of sign %d", what, v, err, exact.Sign())
	}
}

// TestIntOverflow: Add, Sub, Mul and Neg at and around MinInt64 and
// MaxInt64 return the exact result or an *ErrOverflow with its side, and
// Bound saturates that overflow into a valid bound on either side.
func TestIntOverflow(t *testing.T) {
	ints := []int64{0, 1, -1, 2, -2, 3, 1 << 32, -(1 << 32), math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, math.MaxInt64 / 2, math.MinInt64 / 2}
	ops := []struct {
		name  string
		f     func(a, b Value) (Value, error)
		exact func(z, x, y *big.Int) *big.Int
	}{
		{"+", Add, (*big.Int).Add},
		{"-", Sub, (*big.Int).Sub},
		{"*", Mul, (*big.Int).Mul},
	}
	for _, a := range ints {
		v, err := Neg(Int(a))
		checkOverflow(t, fmt.Sprintf("-(%d)", a), v, err, new(big.Int).Neg(big.NewInt(a)))
		for _, b := range ints {
			for _, op := range ops {
				v, err := op.f(Int(a), Int(b))
				checkOverflow(t, fmt.Sprintf("%d %s %d", a, op.name, b), v, err, op.exact(new(big.Int), big.NewInt(a), big.NewInt(b)))
			}
		}
	}
	// A float minus MinInt64 is a float sum, not an overflow.
	if v, err := Sub(Float(-1), Int(math.MinInt64)); err != nil || v.Kind() != KindFloat || v.AsFloat() != 0x1p63-1 {
		t.Errorf("-1.0 - MinInt64 = %#v, %v", v, err)
	}
	up, upErr := Add(Int(math.MaxInt64), Int(1))
	down, downErr := Mul(Int(math.MinInt64), Int(2))
	cases := []struct {
		v    Value
		err  error
		dir  int
		want Value
	}{
		{up, upErr, 1, PosInf()},
		{up, upErr, -1, Int(math.MaxInt64)},
		{down, downErr, -1, NegInf()},
		{down, downErr, 1, Int(math.MinInt64)},
		{Int(5), nil, 1, Int(5)},
	}
	for _, c := range cases {
		if got, err := Bound(c.v, c.err, c.dir); err != nil || !Same(got, c.want) {
			t.Errorf("Bound(%v, %v, %d) = %v, %v; want %v", c.v, c.err, c.dir, got, err, c.want)
		}
	}
	_, typeErr := Add(String("a"), Int(1))
	if _, err := Bound(Null(), typeErr, 1); err != typeErr {
		t.Errorf("Bound passed a type error as %v", err)
	}
}

// TestSame: representation identity, not order equality.
func TestSame(t *testing.T) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Float(1), false},
		{Float(0), Float(math.Copysign(0, -1)), false},
		{Float(math.NaN()), Float(math.NaN()), true},
		{Float(math.NaN()), Float(nan2), false},
		{String("a"), String("a"), true},
		{String("a"), String("b"), false},
		{Null(), Null(), true},
		{PosInf(), PosInf(), true},
		{PosInf(), NegInf(), false},
		{Bool(true), Bool(false), false},
	}
	for _, c := range cases {
		if got := Same(c.a, c.b); got != c.want {
			t.Errorf("Same(%#v, %#v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, op := range []func(a, b Value) (Value, error){Add, Sub, Mul, Div} {
		v, err := op(Null(), Int(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op(null,1) = %v, %v", v, err)
		}
		v, err = op(Int(1), Null())
		if err != nil || !v.IsNull() {
			t.Errorf("op(1,null) = %v, %v", v, err)
		}
	}
	v, err := Neg(Null())
	if err != nil || !v.IsNull() {
		t.Errorf("neg(null) = %v, %v", v, err)
	}
}

func TestArithmeticErrors(t *testing.T) {
	if _, err := Add(String("a"), Int(1)); err == nil {
		t.Error("string + int should fail")
	}
	if _, err := Mul(Bool(true), Int(1)); err == nil {
		t.Error("bool * int should fail")
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := Div(Int(1), Float(0)); err == nil {
		t.Error("division by float zero should fail")
	}
	if _, err := Add(NegInf(), PosInf()); err == nil {
		t.Error("-inf + +inf should fail")
	}
	if _, err := Neg(String("x")); err == nil {
		t.Error("neg string should fail")
	}
	var te *ErrType
	_, err := Add(String("a"), Int(1))
	if e, ok := err.(*ErrType); ok {
		te = e
	} else {
		t.Fatalf("expected *ErrType, got %T", err)
	}
	if te.Error() == "" {
		t.Error("empty error message")
	}
	if (ErrDivisionByZero{}).Error() == "" {
		t.Error("empty division error message")
	}
}

func TestInfArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error %v", err)
		}
		if Compare(got, want) != 0 {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	v, err := Add(PosInf(), Int(5))
	check(v, err, PosInf())
	v, err = Add(Int(5), NegInf())
	check(v, err, NegInf())
	v, err = Mul(PosInf(), Int(-2))
	check(v, err, NegInf())
	v, err = Mul(NegInf(), Int(-2))
	check(v, err, PosInf())
	v, err = Mul(PosInf(), Int(0))
	check(v, err, Int(0)) // annihilation convention
	v, err = Mul(PosInf(), PosInf())
	check(v, err, PosInf())
	v, err = Div(Int(3), PosInf())
	check(v, err, Float(0))
	v, err = Div(PosInf(), Int(2))
	check(v, err, PosInf())
	v, err = Div(PosInf(), Int(-2))
	check(v, err, NegInf())
	if _, err := Div(PosInf(), NegInf()); err == nil {
		t.Error("inf/inf should fail")
	}
	v, err = Sub(PosInf(), Int(1))
	check(v, err, PosInf())
}

func TestAppendKeyInjective(t *testing.T) {
	vals := []Value{Null(), Bool(false), Bool(true), Int(0), Int(1), Int(256),
		Float(0.5), Float(-0.5), String(""), String("a"), String("ab"),
		NegInf(), PosInf()}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(v.AppendKey(nil))
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision between %v and %v", prev, v)
		}
		seen[k] = v
	}
}

func TestAppendKeyIntFloatAgree(t *testing.T) {
	ki := string(Int(42).AppendKey(nil))
	kf := string(Float(42).AppendKey(nil))
	if ki != kf {
		t.Error("Int(42) and Float(42) should share a key (Compare-equal)")
	}
	kf2 := string(Float(42.5).AppendKey(nil))
	if ki == kf2 {
		t.Error("Float(42.5) must not collide with Int(42)")
	}
}

// TestCompareAgreesWithAppendKey: Compare is a total order over numbers
// whose equality classes are exactly the AppendKey classes. Hash joins,
// grouping and the SG-combiner key by AppendKey while selection, sorting
// and overlap tests use Compare, so the two must not disagree on any pair.
// The values are listed in ascending order, equal neighbours grouped.
func TestCompareAgreesWithAppendKey(t *testing.T) {
	nan := math.NaN()
	otherNaN := math.Float64frombits(math.Float64bits(nan) ^ 1)
	const big = 1 << 53
	classes := [][]Value{
		{NegInf()},
		{Null()},
		{Float(nan), Float(-nan), Float(otherNaN)},
		{Float(math.Inf(-1))},
		{Float(-1 << 64)},
		{Int(math.MinInt64), Float(-1 << 63)},
		{Int(math.MinInt64 + 1)},
		{Int(-1), Float(-1)},
		{Float(-0.5)},
		{Int(0), Float(0), Float(math.Copysign(0, -1))},
		{Float(math.SmallestNonzeroFloat64)},
		{Float(0.5)},
		{Int(1), Float(1)},
		{Int(big), Float(big)},
		{Int(big + 1)},
		{Int(big + 2), Float(big + 2)},
		{Int(math.MaxInt64 - 1)},
		{Int(math.MaxInt64)},
		{Float(1 << 63)},
		{Float(math.MaxFloat64)},
		{Float(math.Inf(1))},
		{String("")},
		{String("a")},
		{PosInf()},
	}
	for ci, ca := range classes {
		for cj, cb := range classes {
			want := 0
			if ci < cj {
				want = -1
			} else if ci > cj {
				want = 1
			}
			for _, a := range ca {
				for _, b := range cb {
					if got := Compare(a, b); got != want {
						t.Errorf("Compare(%v %s, %v %s) = %d, want %d", a, a.Kind(), b, b.Kind(), got, want)
					}
					sameKey := string(a.AppendKey(nil)) == string(b.AppendKey(nil))
					if sameKey != (want == 0) {
						t.Errorf("AppendKey(%v %s) == AppendKey(%v %s) is %v, want %v", a, a.Kind(), b, b.Kind(), sameKey, want == 0)
					}
				}
			}
		}
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{Int(1), String("x")}
	b := a.Clone()
	b[0] = Int(2)
	if a[0] != Int(1) {
		t.Error("Clone aliases")
	}
	if !a.Equal(Tuple{Float(1), String("x")}) {
		t.Error("Equal should coerce numerics")
	}
	if a.Equal(Tuple{Int(1)}) {
		t.Error("length mismatch should not be equal")
	}
	if a.Compare(b) != -1 || b.Compare(a) != 1 || a.Compare(a) != 0 {
		t.Error("Compare ordering")
	}
	if (Tuple{Int(1)}).Compare(Tuple{Int(1), Int(2)}) != -1 {
		t.Error("prefix should order first")
	}
	if (Tuple{Int(1), Int(2)}).Compare(Tuple{Int(1)}) != 1 {
		t.Error("longer should order later")
	}
	c := a.Concat(b)
	if len(c) != 4 || c[2] != Int(2) {
		t.Error("Concat broken")
	}
	p := c.Project([]int{3, 0})
	if len(p) != 2 || p[0] != String("x") || p[1] != Int(1) {
		t.Error("Project broken")
	}
	if a.Key() == b.Key() {
		t.Error("distinct tuples share a key")
	}
	if c.KeyOn([]int{0, 1}) != a.Key() {
		t.Error("KeyOn prefix should equal Key of prefix")
	}
	if a.String() != "(1, x)" {
		t.Errorf("String: %s", a.String())
	}
}

// TestValueLayout pins the layout that lets the compiler keep a Value in
// registers: at most four fields and four words. A fifth field would
// send every Value the kernels pass or return through memory again.
func TestValueLayout(t *testing.T) {
	if n := reflect.TypeOf(Value{}).NumField(); n > 4 {
		t.Errorf("Value has %d fields, want at most 4", n)
	}
	if size := unsafe.Sizeof(Value{}); size > 32 {
		t.Errorf("Value is %d bytes, want at most 32", size)
	}
}

// TestFloatEdgeCases: floats held as bits keep every documented meaning
// at the edges — signed zeros, NaN payloads, infinities, the extreme
// magnitudes — next to the extreme ints.
func TestFloatEdgeCases(t *testing.T) {
	nan := math.NaN()
	negNaN := math.Float64frombits(math.Float64bits(nan) | 1<<63)
	type edge struct {
		v     Value
		isInt bool
		i     int64
		f     float64
		str   string
	}
	fl := func(f float64, str string) edge { return edge{v: Float(f), f: f, str: str} }
	in := func(i int64, str string) edge { return edge{v: Int(i), isInt: true, i: i, f: float64(i), str: str} }
	edges := []edge{
		fl(0, "0"),
		fl(math.Copysign(0, -1), "-0"),
		fl(nan, "NaN"),
		fl(negNaN, "NaN"),
		fl(math.Inf(1), "+Inf"),
		fl(math.Inf(-1), "-Inf"),
		fl(math.MaxFloat64, "1.7976931348623157e+308"),
		fl(math.SmallestNonzeroFloat64, "5e-324"),
		in(math.MinInt64, "-9223372036854775808"),
		in(math.MaxInt64, "9223372036854775807"),
	}
	// want is the order value.go documents: cmp.Compare on two floats
	// (NaN equals NaN and sorts below every number), exact otherwise.
	want := func(a, b edge) int {
		switch {
		case !a.isInt && !b.isInt:
			return cmp.Compare(a.f, b.f)
		case a.isInt && b.isInt:
			return cmp.Compare(a.i, b.i)
		case math.IsNaN(a.f):
			return -1
		case math.IsNaN(b.f):
			return 1
		}
		exact := func(e edge) *big.Float {
			if e.isInt {
				return new(big.Float).SetInt64(e.i)
			}
			return new(big.Float).SetFloat64(e.f)
		}
		return exact(a).Cmp(exact(b))
	}
	for i, a := range edges {
		for j, b := range edges {
			w := want(a, b)
			if got := Compare(a.v, b.v); got != w {
				t.Errorf("Compare(%v, %v) = %d, want %d", a.v, b.v, got, w)
			}
			if got := Equal(a.v, b.v); got != (w == 0) {
				t.Errorf("Equal(%v, %v) = %v, want %v", a.v, b.v, got, w == 0)
			}
			if got := Same(a.v, b.v); got != (i == j) {
				t.Errorf("Same(%#v, %#v) = %v, want %v", a.v, b.v, got, i == j)
			}
			sameKey := string(a.v.AppendKey(nil)) == string(b.v.AppendKey(nil))
			if sameKey != (w == 0) {
				t.Errorf("AppendKey(%v) == AppendKey(%v) is %v, Compare says %d", a.v, b.v, sameKey, w)
			}
		}
		if got := a.v.String(); got != a.str {
			t.Errorf("String(%#v) = %q, want %q", a.v, got, a.str)
		}
		if got := a.v.AsFloat(); math.Float64bits(got) != math.Float64bits(a.f) {
			t.Errorf("AsFloat(%#v) = %x bits, want %x", a.v, math.Float64bits(got), math.Float64bits(a.f))
		}
		wantInt := a.i
		if !a.isInt {
			wantInt = int64(a.f)
		}
		if got := a.v.AsInt(); got != wantInt {
			t.Errorf("AsInt(%#v) = %d, want %d", a.v, got, wantInt)
		}
		if !a.isInt && !Same(a.v, Float(math.Float64frombits(math.Float64bits(a.f)))) {
			t.Errorf("Float(%#v) rebuilt from its bits is not Same", a.v)
		}
	}
	negZero, err := Neg(Float(0))
	if err != nil || math.Float64bits(negZero.AsFloat()) != 1<<63 || !Same(negZero, Float(math.Copysign(0, -1))) {
		t.Errorf("Neg(Float(0)) = %#v, %v; want the bits of -0", negZero, err)
	}
}
