// Package types implements the universal domain D of attribute values used
// throughout the AU-DB system: a tagged union over null, booleans, 64-bit
// integers, 64-bit floats and strings, equipped with the total order the
// paper requires (Section 3, footnote 2) and with the arithmetic used by
// scalar expressions (Section 5).
//
// Two sentinel values, NegInf and PosInf, order below and above every other
// value. They serve as the end points of "whole domain" ranges and as the
// neutral elements of the MIN and MAX aggregation monoids.
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies which member of the tagged union a Value holds.
type Kind uint8

// The kinds. KindNull is zero so that the zero Value is null. The total
// order over D is defined by rank(), not by the numeric kind codes:
// -inf < null < bool < numeric < string < +inf.
const (
	KindNull Kind = iota // SQL-style null / completely unknown marker
	KindBool
	KindInt
	KindFloat
	KindString
	KindNegInf // -infinity sentinel; smaller than everything
	KindPosInf // +infinity sentinel; larger than everything
)

func (k Kind) String() string {
	switch k {
	case KindNegInf:
		return "neginf"
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindPosInf:
		return "posinf"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Value is an element of the universal domain D. The zero value is Null.
// Value is a comparable struct and may be used as a map key; note however
// that map-key identity distinguishes Int(2) from Float(2) even though
// Compare treats them as equal (homogeneously typed columns, which all
// generators in this repository produce, avoid the distinction).
type Value struct {
	kind Kind
	b    bool
	i    int64
	f    float64
	s    string
}

// Null returns the null value. It is also the zero Value.
func Null() Value { return Value{kind: KindNull} }

// Bool returns a boolean domain value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Int returns an integer domain value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating point domain value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// String returns a string domain value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// NegInf returns the sentinel that orders below every domain value.
func NegInf() Value { return Value{kind: KindNegInf} }

// PosInf returns the sentinel that orders above every domain value.
func PosInf() Value { return Value{kind: KindPosInf} }

// True and False are convenience boolean constants.
var (
	TrueValue  = Bool(true)
	FalseValue = Bool(false)
)

// Kind reports which member of the union v holds.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// IsInf reports whether v is one of the two infinity sentinels.
func (v Value) IsInf() bool { return v.kind == KindNegInf || v.kind == KindPosInf }

// AsBool returns the boolean payload. It is false for non-boolean values.
func (v Value) AsBool() bool { return v.kind == KindBool && v.b }

// AsInt returns the value coerced to int64 (truncating floats).
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindFloat:
		return int64(v.f)
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	}
	return 0
}

// AsFloat returns the value coerced to float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	case KindBool:
		if v.b {
			return 1
		}
		return 0
	case KindNegInf:
		return math.Inf(-1)
	case KindPosInf:
		return math.Inf(1)
	}
	return 0
}

// AsString returns the string payload, or a rendering for other kinds.
func (v Value) AsString() string {
	if v.kind == KindString {
		return v.s
	}
	return v.String()
}

// String renders the value for human consumption.
func (v Value) String() string {
	switch v.kind {
	case KindNegInf:
		return "-inf"
	case KindNull:
		return "null"
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	case KindPosInf:
		return "+inf"
	}
	return "?"
}

// rank maps kinds onto the total order of D: -inf < null < bool < numeric <
// string < +inf. Int and float share a rank and compare numerically.
func (v Value) rank() int {
	switch v.kind {
	case KindNegInf:
		return 0
	case KindNull:
		return 1
	case KindBool:
		return 2
	case KindInt, KindFloat:
		return 3
	case KindString:
		return 4
	case KindPosInf:
		return 5
	}
	return 6
}

// Compare implements the total order over D. It returns -1, 0 or +1.
// Numbers compare by value, ints against floats exactly; a float NaN equals
// every NaN and orders below every other number, as in cmp.Compare.
// Compare-equal values have equal AppendKey encodings and vice versa.
func Compare(a, b Value) int {
	ra, rb := a.rank(), b.rank()
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNegInf, KindNull, KindPosInf:
		return 0
	case KindBool:
		switch {
		case a.b == b.b:
			return 0
		case !a.b:
			return -1
		default:
			return 1
		}
	case KindString:
		return strings.Compare(a.s, b.s)
	default: // numeric
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			return cmp.Compare(a.i, b.i)
		case a.kind == KindInt:
			return -compareFloatInt(b.f, a.i)
		case b.kind == KindInt:
			return compareFloatInt(a.f, b.i)
		}
		return cmp.Compare(a.f, b.f)
	}
}

// compareFloatInt compares f with i exactly, without rounding i to a
// float64, so that Compare-equality between ints and floats holds exactly
// when AppendKey gives them the same key. Like cmp.Compare, NaN orders
// below every other number.
func compareFloatInt(f float64, i int64) int {
	switch {
	case math.IsNaN(f) || f < -twoTo63:
		return -1
	case f >= twoTo63:
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63), so the conversion is exact
	if c := cmp.Compare(int64(t), i); c != 0 {
		return c
	}
	return cmp.Compare(f, t)
}

// twoTo63 is 2^63: the int64 range is [-twoTo63, twoTo63).
const twoTo63 = 1 << 63

// Equal reports whether a and b are equal under the total order.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Same reports whether a and b are the same value by representation: the
// same kind and the same bits. Unlike Equal it tells -0 from 0, 1 from 1.0
// and one NaN payload from another.
func Same(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindBool:
		return a.b == b.b
	case KindInt:
		return a.i == b.i
	case KindFloat:
		return math.Float64bits(a.f) == math.Float64bits(b.f)
	case KindString:
		return a.s == b.s
	}
	return true
}

// Less reports a < b under the total order.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// Min returns the smaller of a and b under the total order.
func Min(a, b Value) Value {
	if Compare(a, b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b under the total order.
func Max(a, b Value) Value {
	if Compare(a, b) >= 0 {
		return a
	}
	return b
}

// ErrType is returned by arithmetic on operands of unsuitable kinds.
type ErrType struct {
	Op   string
	A, B Value
}

func (e *ErrType) Error() string {
	return fmt.Sprintf("types: invalid operands for %s: %s (%s), %s (%s)",
		e.Op, e.A, e.A.kind, e.B, e.B.kind)
}

// ErrDivisionByZero is returned by Div when the divisor is zero.
type ErrDivisionByZero struct{}

func (ErrDivisionByZero) Error() string { return "types: division by zero" }

func numericPair(op string, a, b Value) error {
	okA := a.IsNumeric() || a.IsInf() || a.IsNull()
	okB := b.IsNumeric() || b.IsInf() || b.IsNull()
	if !okA || !okB {
		return &ErrType{Op: op, A: a, B: b}
	}
	return nil
}

// Add returns a + b. Null propagates; infinities absorb (inf + x = inf).
// Adding opposite infinities is an error.
func Add(a, b Value) (Value, error) {
	// The numeric pairs return what addGeneral returns, without its checks.
	switch {
	case a.kind == KindFloat && b.kind == KindFloat:
		return Float(a.f + b.f), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i + b.i), nil
	case a.kind == KindInt && b.kind == KindFloat:
		return Float(float64(a.i) + b.f), nil
	case a.kind == KindFloat && b.kind == KindInt:
		return Float(a.f + float64(b.i)), nil
	}
	return addGeneral(a, b)
}

func addGeneral(a, b Value) (Value, error) {
	if err := numericPair("+", a, b); err != nil {
		return Null(), err
	}
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.IsInf() || b.IsInf() {
		return addInf(a, b)
	}
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.i + b.i), nil
	}
	return Float(a.AsFloat() + b.AsFloat()), nil
}

func addInf(a, b Value) (Value, error) {
	sa, sb := infSign(a), infSign(b)
	if sa != 0 && sb != 0 && sa != sb {
		return Null(), &ErrType{Op: "+inf", A: a, B: b}
	}
	if sa < 0 || sb < 0 {
		return NegInf(), nil
	}
	return PosInf(), nil
}

func infSign(v Value) int {
	switch v.kind {
	case KindNegInf:
		return -1
	case KindPosInf:
		return 1
	}
	return 0
}

// Sub returns a - b.
func Sub(a, b Value) (Value, error) {
	nb, err := Neg(b)
	if err != nil {
		return Null(), err
	}
	return Add(a, nb)
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null(), nil
	case KindInt:
		return Int(-a.i), nil
	case KindFloat:
		return Float(-a.f), nil
	case KindNegInf:
		return PosInf(), nil
	case KindPosInf:
		return NegInf(), nil
	}
	return Null(), &ErrType{Op: "neg", A: a, B: Null()}
}

// Mul returns a * b. Inf times zero yields zero (the convention needed for
// multiplicity-weighted aggregation, where a zero multiplicity annihilates).
func Mul(a, b Value) (Value, error) {
	// The numeric pairs return what mulGeneral returns, without its checks.
	switch {
	case a.kind == KindFloat && b.kind == KindFloat:
		return Float(a.f * b.f), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i * b.i), nil
	case a.kind == KindInt && b.kind == KindFloat:
		return Float(float64(a.i) * b.f), nil
	case a.kind == KindFloat && b.kind == KindInt:
		return Float(a.f * float64(b.i)), nil
	}
	return mulGeneral(a, b)
}

func mulGeneral(a, b Value) (Value, error) {
	if err := numericPair("*", a, b); err != nil {
		return Null(), err
	}
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if a.IsInf() || b.IsInf() {
		return mulInf(a, b)
	}
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.i * b.i), nil
	}
	return Float(a.AsFloat() * b.AsFloat()), nil
}

func mulInf(a, b Value) (Value, error) {
	signOf := func(v Value) int {
		if s := infSign(v); s != 0 {
			return s
		}
		f := v.AsFloat()
		switch {
		case f < 0:
			return -1
		case f > 0:
			return 1
		}
		return 0
	}
	sa, sb := signOf(a), signOf(b)
	if sa == 0 || sb == 0 {
		return Int(0), nil
	}
	if sa*sb > 0 {
		return PosInf(), nil
	}
	return NegInf(), nil
}

// Div returns a / b as a float. Division by zero is an error.
func Div(a, b Value) (Value, error) {
	if err := numericPair("/", a, b); err != nil {
		return Null(), err
	}
	if a.IsNull() || b.IsNull() {
		return Null(), nil
	}
	if b.IsNumeric() && b.AsFloat() == 0 {
		return Null(), ErrDivisionByZero{}
	}
	if a.IsInf() && b.IsInf() {
		return Null(), &ErrType{Op: "inf/inf", A: a, B: b}
	}
	if b.IsInf() {
		return Float(0), nil
	}
	if a.IsInf() {
		if b.AsFloat() < 0 {
			return neg(a), nil
		}
		return a, nil
	}
	return Float(a.AsFloat() / b.AsFloat()), nil
}

func neg(a Value) Value {
	v, err := Neg(a)
	if err != nil {
		return Null()
	}
	return v
}

// AppendKey appends a collation-stable, injective encoding of v to dst.
// Keys are used for hash joins and grouping.
func (v Value) AppendKey(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindBool:
		if v.b {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case KindInt:
		dst = appendInt64(dst, v.i)
	case KindFloat:
		// Integral floats share their key with the equal int, and every
		// NaN payload shares one key, so that Compare-equality and
		// key-equality agree for mixed columns.
		switch f := v.f; {
		case f == math.Trunc(f) && f >= -twoTo63 && f < twoTo63:
			dst[len(dst)-1] = byte(KindInt)
			dst = appendInt64(dst, int64(f))
		case math.IsNaN(f):
			dst = appendInt64(dst, int64(math.Float64bits(math.NaN())))
		default:
			dst = appendInt64(dst, int64(math.Float64bits(f)))
		}
	case KindString:
		dst = appendInt64(dst, int64(len(v.s)))
		dst = append(dst, v.s...)
	}
	return dst
}

func appendInt64(dst []byte, x int64) []byte {
	u := uint64(x)
	return append(dst,
		byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
		byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}
