// Package expr implements the scalar expression language of the paper
// (Section 5): constants, attribute references, boolean connectives,
// comparisons, arithmetic, and conditional expressions, with two evaluation
// semantics:
//
//   - deterministic evaluation over ordinary tuples (Definition 4), used for
//     selected-guess worlds and for the deterministic bag engine;
//   - range-annotated evaluation over tuples of [lb/sg/ub] triples
//     (Definition 9), which is bound preserving (Theorem 1).
//
// Each semantics has a per-row evaluator (Eval, EvalRange). The
// pipelined executor's columnar batches take one column-at-a-time
// evaluator, RangeProg (CompileRange): it evaluates the range semantics
// over any columns, a certain cell as a point of one value, calling the
// rule functions EvalRange calls (RangeCmp, RangeLogic, RangeNot,
// RangeIsNull, RangeArith, RangeNAry, RangeIf) or point rules equal to
// them on points. When a program fails on a batch, the executor
// re-evaluates it per row, which reports the reference executor's
// row-order error. Prog (CompileVec) runs a RangeProg over flat columns
// held as [][]types.Value.
//
// Null handling in the deterministic semantics follows the pragmatics of the
// paper's implementation: arithmetic propagates null, comparisons against
// null are false, and logical connectives treat null as false. Completely
// unknown values are represented by full ranges, not nulls, once data has
// been translated into an AU-DB.
package expr

import (
	"fmt"
	"strings"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// Expr is a scalar expression over the attributes of a single tuple.
type Expr interface {
	// Eval evaluates the expression over a deterministic tuple.
	Eval(t types.Tuple) (types.Value, error)
	// EvalRange evaluates the expression over a range-annotated tuple
	// using the bound-preserving semantics of Definition 9.
	EvalRange(t rangeval.Tuple) (rangeval.V, error)
	// String renders the expression.
	String() string
}

// ---------------------------------------------------------------- leaves --

// Const is a constant expression.
type Const struct{ V types.Value }

// C builds a constant expression.
func C(v types.Value) Const { return Const{V: v} }

// CInt, CFloat, CStr and CBool are typed constant shorthands.
func CInt(i int64) Const     { return Const{V: types.Int(i)} }
func CFloat(f float64) Const { return Const{V: types.Float(f)} }
func CStr(s string) Const    { return Const{V: types.String(s)} }
func CBool(b bool) Const     { return Const{V: types.Bool(b)} }

func (c Const) Eval(types.Tuple) (types.Value, error) { return c.V, nil }
func (c Const) EvalRange(rangeval.Tuple) (rangeval.V, error) {
	return rangeval.Certain(c.V), nil
}
func (c Const) String() string {
	if c.V.Kind() == types.KindString {
		return fmt.Sprintf("%q", c.V.AsString())
	}
	return c.V.String()
}

// Attr references the attribute at a tuple position. Name is informational.
type Attr struct {
	Idx  int
	Name string
}

// Col builds an attribute reference.
func Col(idx int, name string) Attr { return Attr{Idx: idx, Name: name} }

func (a Attr) Eval(t types.Tuple) (types.Value, error) {
	if a.Idx < 0 || a.Idx >= len(t) {
		return types.Null(), fmt.Errorf("expr: attribute %s(#%d) out of range (arity %d)", a.Name, a.Idx, len(t))
	}
	return t[a.Idx], nil
}

func (a Attr) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	if a.Idx < 0 || a.Idx >= len(t) {
		return rangeval.V{}, fmt.Errorf("expr: attribute %s(#%d) out of range (arity %d)", a.Name, a.Idx, len(t))
	}
	return t[a.Idx], nil
}

func (a Attr) String() string {
	if a.Name != "" {
		return a.Name
	}
	return fmt.Sprintf("$%d", a.Idx)
}

// ----------------------------------------------------------------- logic --

// LogicOp identifies a boolean connective.
type LogicOp uint8

const (
	OpAnd LogicOp = iota
	OpOr
)

// Logic is a binary boolean connective.
type Logic struct {
	Op   LogicOp
	L, R Expr
}

// And and Or build (possibly n-ary, right-nested) connectives.
func And(es ...Expr) Expr { return foldLogic(OpAnd, true, es) }
func Or(es ...Expr) Expr  { return foldLogic(OpOr, false, es) }

func foldLogic(op LogicOp, unit bool, es []Expr) Expr {
	if len(es) == 0 {
		return CBool(unit)
	}
	e := es[0]
	for _, n := range es[1:] {
		e = Logic{Op: op, L: e, R: n}
	}
	return e
}

func truth(v types.Value) bool { return v.Kind() == types.KindBool && v.AsBool() }

func (l Logic) Eval(t types.Tuple) (types.Value, error) {
	lv, err := l.L.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	// Short circuit.
	if l.Op == OpAnd && !truth(lv) {
		return types.Bool(false), nil
	}
	if l.Op == OpOr && truth(lv) {
		return types.Bool(true), nil
	}
	rv, err := l.R.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	return types.Bool(truth(rv)), nil
}

func (l Logic) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	a, err := l.L.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	b, err := l.R.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeLogic(l.Op, TruthOf(a), TruthOf(b)).V(), nil
}

// RangeLogic applies op to two range booleans: the rule Logic.EvalRange
// applies once both operands are evaluated.
func RangeLogic(op LogicOp, a, b Truth) Truth {
	if op == OpAnd {
		return newTruth(a.Lo && b.Lo, a.SG && b.SG, a.Hi && b.Hi)
	}
	return newTruth(a.Lo || b.Lo, a.SG || b.SG, a.Hi || b.Hi)
}

func (l Logic) String() string {
	op := " AND "
	if l.Op == OpOr {
		op = " OR "
	}
	return "(" + l.L.String() + op + l.R.String() + ")"
}

// Not is boolean negation.
type Not struct{ E Expr }

func (n Not) Eval(t types.Tuple) (types.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	return types.Bool(!truth(v)), nil
}

// EvalRange implements ¬ per Definition 9: lb := ¬ub, ub := ¬lb.
func (n Not) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	v, err := n.E.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeNot(TruthOf(v)).V(), nil
}

// RangeNot negates a range boolean per Definition 9: lb := ¬ub, ub := ¬lb.
func RangeNot(t Truth) Truth { return newTruth(!t.Hi, !t.SG, !t.Lo) }

func (n Not) String() string { return "NOT " + n.E.String() }

// Truth is a range-annotated boolean as the truth of its three
// components: Lo holds in every world, SG in the selected-guess world and
// Hi in some world. The boolean nodes (Cmp, Logic, Not, IsNull) produce
// it normalized, as rangeval.New normalizes [lo/sg/hi]: Lo implies SG
// and SG implies Hi.
type Truth struct{ Lo, SG, Hi bool }

// pointTruth is the truth of a range boolean that is a point: h in every
// world. A normalized Truth is a point exactly when Lo == Hi.
func pointTruth(h bool) Truth { return Truth{Lo: h, SG: h, Hi: h} }

// newTruth normalizes three truths as rangeval.New normalizes the
// booleans [lo/sg/hi] (false < true): lo ← lo∧sg, hi ← hi∨sg.
func newTruth(lo, sg, hi bool) Truth { return Truth{Lo: lo && sg, SG: sg, Hi: hi || sg} }

// TruthOf reads a range value as a range boolean: each component holds
// when it is the boolean true, normalized as rangeval.New normalizes. A
// value that is not a range boolean, such as the unknown boolean
// [-inf/true/+inf], reads as uncertain: (F,T,F) becomes (F,T,T), so a
// condition that holds in the selected-guess world may hold.
func TruthOf(v rangeval.V) Truth { return newTruth(truth(v.Lo), truth(v.SG), truth(v.Hi)) }

// V returns t as the range boolean [Lo/SG/Hi], normalized.
func (t Truth) V() rangeval.V {
	return rangeval.New(types.Bool(t.Lo), types.Bool(t.SG), types.Bool(t.Hi))
}

// ------------------------------------------------------------ comparison --

// CmpOp identifies a comparison operator.
type CmpOp uint8

const (
	OpEq CmpOp = iota
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
)

func (o CmpOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNeq:
		return "<>"
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	}
	return "?"
}

// Cmp is a comparison under the total order of the domain.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Comparison constructors.
func Eq(l, r Expr) Cmp  { return Cmp{Op: OpEq, L: l, R: r} }
func Neq(l, r Expr) Cmp { return Cmp{Op: OpNeq, L: l, R: r} }
func Lt(l, r Expr) Cmp  { return Cmp{Op: OpLt, L: l, R: r} }
func Leq(l, r Expr) Cmp { return Cmp{Op: OpLeq, L: l, R: r} }
func Gt(l, r Expr) Cmp  { return Cmp{Op: OpGt, L: l, R: r} }
func Geq(l, r Expr) Cmp { return Cmp{Op: OpGeq, L: l, R: r} }

func (c Cmp) Eval(t types.Tuple) (types.Value, error) {
	lv, err := c.L.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	rv, err := c.R.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	return types.Bool(cmpHolds(c.Op, lv, rv)), nil
}

// cmpHolds is the deterministic comparison: SQL-style, a comparison with
// null does not hold.
func cmpHolds(op CmpOp, a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return cmpOrd(op, types.Compare(a, b))
}

// cmpOrd reports whether op holds of two values that Compare orders as
// cmp.
func cmpOrd(op CmpOp, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNeq:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLeq:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	}
	return cmp >= 0
}

// EvalRange implements the comparison bounds of Definition 9.
func (c Cmp) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	a, err := c.L.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	b, err := c.R.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeCmp(c.Op, &a, &b).V(), nil
}

// RangeCmp compares two range values under Definition 9: the rule
// Cmp.EvalRange applies once both operands are evaluated. The SG truth is
// the deterministic comparison of the two SG components: a successful
// EvalRange's SG is what Eval returns over the selected-guess tuple, so
// this is Eval's answer in that world without evaluating the operands
// again. The operands are passed by pointer so that a column-at-a-time
// caller compares them in place; they are only read.
func RangeCmp(op CmpOp, a, b *rangeval.V) Truth {
	var lo, hi bool
	switch op {
	case OpEq:
		// Certainly equal iff both are certain and equal; possibly equal
		// iff the intervals overlap.
		lo = types.Equal(a.Hi, b.Lo) && types.Equal(b.Hi, a.Lo)
		hi = a.Overlaps(*b)
	case OpNeq:
		lo = !a.Overlaps(*b)
		hi = !(types.Equal(a.Hi, b.Lo) && types.Equal(b.Hi, a.Lo))
	case OpLt:
		lo = types.Less(a.Hi, b.Lo)
		hi = types.Less(a.Lo, b.Hi)
	case OpLeq:
		lo = !types.Less(b.Lo, a.Hi)
		hi = !types.Less(b.Hi, a.Lo)
	case OpGt:
		lo = types.Less(b.Hi, a.Lo)
		hi = types.Less(b.Lo, a.Hi)
	case OpGeq:
		lo = !types.Less(a.Lo, b.Hi)
		hi = !types.Less(a.Hi, b.Lo)
	}
	return newTruth(lo, cmpHolds(op, a.SG, b.SG), hi)
}

// pointCmp is RangeCmp of the points x and y, from one comparison. For
// two points that are not null every bound RangeCmp tests reads the one
// order Compare(x, y) — Compare is a total order, and Equal and Less are
// Compare = 0 and Compare < 0 — as cmpHolds reads it, so the three truths
// are the same: a point truth. A null operand makes cmpHolds false where
// the bounds may still compare equal, as two certain nulls give (F,F,T),
// so it takes RangeCmp.
func pointCmp(op CmpOp, x, y types.Value) Truth {
	if x.IsNull() || y.IsNull() {
		a, b := rangeval.Certain(x), rangeval.Certain(y)
		return RangeCmp(op, &a, &b)
	}
	return pointTruth(cmpOrd(op, types.Compare(x, y)))
}

func (c Cmp) String() string {
	return "(" + c.L.String() + " " + c.Op.String() + " " + c.R.String() + ")"
}

// ------------------------------------------------------------ arithmetic --

// ArithOp identifies an arithmetic operator.
type ArithOp uint8

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (o ArithOp) String() string {
	switch o {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Arithmetic constructors.
func Add(l, r Expr) Arith { return Arith{Op: OpAdd, L: l, R: r} }
func Sub(l, r Expr) Arith { return Arith{Op: OpSub, L: l, R: r} }
func Mul(l, r Expr) Arith { return Arith{Op: OpMul, L: l, R: r} }
func Div(l, r Expr) Arith { return Arith{Op: OpDiv, L: l, R: r} }

func (a Arith) Eval(t types.Tuple) (types.Value, error) {
	lv, err := a.L.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	rv, err := a.R.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	switch a.Op {
	case OpAdd:
		return types.Add(lv, rv)
	case OpSub:
		return types.Sub(lv, rv)
	case OpMul:
		return types.Mul(lv, rv)
	default:
		return types.Div(lv, rv)
	}
}

func (a Arith) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	lv, err := a.L.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	rv, err := a.R.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeArith(a.Op, &lv, &rv)
}

// RangeArith applies op to two range values under Definition 9: the rule
// Arith.EvalRange applies once both operands are evaluated. The operands
// are passed by pointer so that a column-at-a-time caller reads them in
// place; they are only read.
//
// Add, Sub and Mul of two points take pointArith on their values. For
// two points the corner rules compute that same operation three times,
// so the shortcut returns exactly their value and their error.
func RangeArith(op ArithOp, a, b *rangeval.V) (rangeval.V, error) {
	if op != OpDiv && isPoint(a) && isPoint(b) {
		v, err := pointArith(op, a.SG, b.SG)
		if err != nil {
			return rangeval.V{}, err
		}
		return rangeval.Certain(v), nil
	}
	switch op {
	case OpAdd:
		return rangeAddCorners(a, b)
	case OpSub:
		return rangeSubCorners(a, b)
	case OpMul:
		return rangeMulCorners(a, b)
	}
	return rangeDiv(a, b)
}

// pointArith is Add, Sub or Mul on the values of two points.
func pointArith(op ArithOp, x, y types.Value) (types.Value, error) {
	switch op {
	case OpAdd:
		return types.Add(x, y)
	case OpSub:
		return types.Sub(x, y)
	}
	return types.Mul(x, y)
}

func (a Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}

// boundOf reads v, err — the sum or difference of the bound values x and
// y — as a bound on side dir (-1 lower, +1 upper): an integer overflow
// saturates as types.Bound does, and opposite infinities saturate to
// dir's sentinel.
func boundOf(v types.Value, err error, x, y types.Value, dir int) (types.Value, error) {
	if _, ok := err.(*types.ErrType); ok && (x.IsInf() || y.IsInf()) {
		if dir < 0 {
			return types.NegInf(), nil
		}
		return types.PosInf(), nil
	}
	return types.Bound(v, err, dir)
}

// isPoint reports whether v is a point by representation: its three
// components are the same value, bits included. For two such operands the
// corner rules compute op(a.SG, b.SG) three times, so the shortcuts
// return exactly that value and that error. A Compare-certain triple such
// as [-0/0/-0] or [1/1.0/1] is not a point here and takes the corners.
func isPoint(v *rangeval.V) bool {
	return types.Same(v.Lo, v.SG) && types.Same(v.SG, v.Hi)
}

// rangeAddCorners is [a] + [b] per Definition 9 for every operand: lower
// bound a.lb + b.lb, upper a.ub + b.ub, each saturating (boundOf).
func rangeAddCorners(a, b *rangeval.V) (rangeval.V, error) {
	lo, err := types.Add(a.Lo, b.Lo)
	if lo, err = boundOf(lo, err, a.Lo, b.Lo, -1); err != nil {
		return rangeval.V{}, err
	}
	hi, err := types.Add(a.Hi, b.Hi)
	if hi, err = boundOf(hi, err, a.Hi, b.Hi, 1); err != nil {
		return rangeval.V{}, err
	}
	sg, err := types.Add(a.SG, b.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	return rangeval.New(lo, sg, hi), nil
}

// rangeSubCorners is [a] - [b] for every operand: lower bound a.lb -
// b.ub, upper a.ub - b.lb, each saturating (boundOf).
func rangeSubCorners(a, b *rangeval.V) (rangeval.V, error) {
	lo, err := types.Sub(a.Lo, b.Hi)
	if lo, err = boundOf(lo, err, a.Lo, b.Hi, -1); err != nil {
		return rangeval.V{}, err
	}
	hi, err := types.Sub(a.Hi, b.Lo)
	if hi, err = boundOf(hi, err, a.Hi, b.Lo, 1); err != nil {
		return rangeval.V{}, err
	}
	sg, err := types.Sub(a.SG, b.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	return rangeval.New(lo, sg, hi), nil
}

// rangeMulCorners is [a] * [b] for every operand: min/max over the four
// bound products, an overflowing product saturating on each side.
func rangeMulCorners(a, b *rangeval.V) (rangeval.V, error) {
	sg, err := types.Mul(a.SG, b.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	var lo, hi types.Value
	for i, x := range [2]types.Value{a.Lo, a.Hi} {
		for j, y := range [2]types.Value{b.Lo, b.Hi} {
			p, err := types.Mul(x, y)
			l, err2 := types.Bound(p, err, -1)
			if err2 != nil {
				return rangeval.V{}, err2
			}
			h, _ := types.Bound(p, err, 1)
			if i == 0 && j == 0 {
				lo, hi = l, h
				continue
			}
			lo = types.Min(lo, l)
			hi = types.Max(hi, h)
		}
	}
	return rangeval.New(lo, sg, hi), nil
}

// rangeDiv implements [a] / [b]. If the divisor interval contains zero the
// result is unbounded, [-inf/sg/+inf], which soundly over-approximates the
// possible quotients (cf. the remark after Definition 9 that 1/e is
// undefined when the range of e spans zero; returning the full range keeps
// queries total). If the divisor is certainly zero, or zero in the selected
// guess world, division fails as in the deterministic semantics.
func rangeDiv(a, b *rangeval.V) (rangeval.V, error) {
	zero := types.Int(0)
	spansZero := b.Contains(zero)
	if spansZero && b.IsCertain() {
		return rangeval.V{}, types.ErrDivisionByZero{}
	}
	sg, err := types.Div(a.SG, b.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	if spansZero {
		return rangeval.New(types.NegInf(), sg, types.PosInf()), nil
	}
	quots := make([]types.Value, 0, 4)
	for _, x := range []types.Value{a.Lo, a.Hi} {
		for _, y := range []types.Value{b.Lo, b.Hi} {
			q, err := types.Div(x, y)
			if err != nil {
				if _, ok := err.(*types.ErrType); ok {
					// inf/inf: saturate conservatively to both ends.
					quots = append(quots, types.NegInf(), types.PosInf())
					continue
				}
				return rangeval.V{}, err
			}
			quots = append(quots, q)
		}
	}
	lo, hi := quots[0], quots[0]
	for _, q := range quots[1:] {
		lo = types.Min(lo, q)
		hi = types.Max(hi, q)
	}
	return rangeval.New(lo, sg, hi), nil
}

// ------------------------------------------------------------------- if --

// If is the conditional expression "if Cond then Then else Else".
type If struct {
	Cond, Then, Else Expr
}

func (e If) Eval(t types.Tuple) (types.Value, error) {
	c, err := e.Cond.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	if truth(c) {
		return e.Then.Eval(t)
	}
	return e.Else.Eval(t)
}

// EvalRange implements the conditional bounds of Definition 9. Branches are
// evaluated lazily when the condition is certain so that guarded partial
// operations (e.g. division) do not raise spurious errors.
func (e If) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	c, err := e.Cond.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	ct := TruthOf(c)
	switch {
	case ct.Lo: // certainly true
		return e.Then.EvalRange(t)
	case !ct.Hi: // certainly false
		return e.Else.EvalRange(t)
	}
	tv, err := e.Then.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	ev, err := e.Else.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeIf(ct.SG, tv, ev), nil
}

// RangeIf joins the branches of an If whose condition is uncertain: the
// bounds cover both branches, and the SG is the branch the condition's SG
// truth selects.
func RangeIf(csg bool, tv, ev rangeval.V) rangeval.V {
	sg := tv.SG
	if !csg {
		sg = ev.SG
	}
	return rangeval.New(types.Min(tv.Lo, ev.Lo), sg, types.Max(tv.Hi, ev.Hi))
}

func (e If) String() string {
	return "IF " + e.Cond.String() + " THEN " + e.Then.String() + " ELSE " + e.Else.String()
}

// --------------------------------------------------------------- is null --

// IsNull tests whether the argument is null.
type IsNull struct{ E Expr }

func (n IsNull) Eval(t types.Tuple) (types.Value, error) {
	v, err := n.E.Eval(t)
	if err != nil {
		return types.Null(), err
	}
	return types.Bool(v.IsNull()), nil
}

func (n IsNull) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	v, err := n.E.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeIsNull(v).V(), nil
}

// RangeIsNull tests a range value for null: the rule IsNull.EvalRange
// applies once its argument is evaluated.
func RangeIsNull(v rangeval.V) Truth {
	null := types.Null()
	certainlyNull := types.Equal(v.Lo, null) && types.Equal(v.Hi, null)
	return newTruth(certainlyNull, v.SG.IsNull(), v.Contains(null))
}

func (n IsNull) String() string { return n.E.String() + " IS NULL" }

// ----------------------------------------------------- least / greatest --

// NAryOp identifies a variadic builtin.
type NAryOp uint8

const (
	OpLeast NAryOp = iota
	OpGreatest
)

// NAry is a variadic least/greatest expression. Both are monotone in every
// argument, so range evaluation is component-wise.
type NAry struct {
	Op   NAryOp
	Args []Expr
}

// Least and Greatest build variadic min/max expressions.
func Least(args ...Expr) NAry    { return NAry{Op: OpLeast, Args: args} }
func Greatest(args ...Expr) NAry { return NAry{Op: OpGreatest, Args: args} }

func (n NAry) Eval(t types.Tuple) (types.Value, error) {
	if len(n.Args) == 0 {
		return types.Null(), fmt.Errorf("expr: %s of zero arguments", n.opName())
	}
	acc, err := n.Args[0].Eval(t)
	if err != nil {
		return types.Null(), err
	}
	for _, a := range n.Args[1:] {
		v, err := a.Eval(t)
		if err != nil {
			return types.Null(), err
		}
		if n.Op == OpLeast {
			acc = types.Min(acc, v)
		} else {
			acc = types.Max(acc, v)
		}
	}
	return acc, nil
}

func (n NAry) EvalRange(t rangeval.Tuple) (rangeval.V, error) {
	if len(n.Args) == 0 {
		return rangeval.V{}, fmt.Errorf("expr: %s of zero arguments", n.opName())
	}
	acc, err := n.Args[0].EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	for _, a := range n.Args[1:] {
		v, err := a.EvalRange(t)
		if err != nil {
			return rangeval.V{}, err
		}
		acc = RangeNAry(n.Op, acc, v)
	}
	return acc, nil
}

// RangeNAry folds one more argument into a least/greatest: the rule
// NAry.EvalRange applies argument by argument. Both are monotone, so the
// fold is component-wise.
func RangeNAry(op NAryOp, acc, v rangeval.V) rangeval.V {
	if op == OpLeast {
		return rangeval.New(types.Min(acc.Lo, v.Lo), types.Min(acc.SG, v.SG), types.Min(acc.Hi, v.Hi))
	}
	return rangeval.New(types.Max(acc.Lo, v.Lo), types.Max(acc.SG, v.SG), types.Max(acc.Hi, v.Hi))
}

func (n NAry) opName() string {
	if n.Op == OpLeast {
		return "least"
	}
	return "greatest"
}

func (n NAry) String() string {
	parts := make([]string, len(n.Args))
	for i, a := range n.Args {
		parts[i] = a.String()
	}
	return n.opName() + "(" + strings.Join(parts, ", ") + ")"
}
