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
	alo, asg, ahi := truth(a.Lo), truth(a.SG), truth(a.Hi)
	blo, bsg, bhi := truth(b.Lo), truth(b.SG), truth(b.Hi)
	if l.Op == OpAnd {
		return boolRange(alo && blo, asg && bsg, ahi && bhi), nil
	}
	return boolRange(alo || blo, asg || bsg, ahi || bhi), nil
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
	return boolRange(!truth(v.Hi), !truth(v.SG), !truth(v.Lo)), nil
}

func (n Not) String() string { return "NOT " + n.E.String() }

func boolRange(lo, sg, hi bool) rangeval.V {
	return rangeval.New(types.Bool(lo), types.Bool(sg), types.Bool(hi))
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
	if lv.IsNull() || rv.IsNull() {
		// SQL-style: comparisons with null do not hold.
		return types.Bool(false), nil
	}
	cmp := types.Compare(lv, rv)
	var out bool
	switch c.Op {
	case OpEq:
		out = cmp == 0
	case OpNeq:
		out = cmp != 0
	case OpLt:
		out = cmp < 0
	case OpLeq:
		out = cmp <= 0
	case OpGt:
		out = cmp > 0
	case OpGeq:
		out = cmp >= 0
	}
	return types.Bool(out), nil
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
	sgv, err := c.Eval(rangeSG(t))
	if err != nil {
		return rangeval.V{}, err
	}
	sg := truth(sgv)
	var lo, hi bool
	switch c.Op {
	case OpEq:
		// Certainly equal iff both are certain and equal; possibly equal
		// iff the intervals overlap.
		lo = types.Equal(a.Hi, b.Lo) && types.Equal(b.Hi, a.Lo)
		hi = a.Overlaps(b)
	case OpNeq:
		lo = !a.Overlaps(b)
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
	return boolRange(lo, sg, hi), nil
}

func (c Cmp) String() string {
	return "(" + c.L.String() + " " + c.Op.String() + " " + c.R.String() + ")"
}

// rangeSG views a range tuple as the deterministic SG tuple without copying
// attribute by attribute more than once.
func rangeSG(t rangeval.Tuple) types.Tuple { return t.SG() }

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
	return RangeArith(a.Op, lv, rv)
}

// RangeArith applies op to two range values under Definition 9: the rule
// Arith.EvalRange applies once both operands are evaluated.
func RangeArith(op ArithOp, a, b rangeval.V) (rangeval.V, error) {
	switch op {
	case OpAdd:
		return RangeAdd(a, b)
	case OpSub:
		return RangeSub(a, b)
	case OpMul:
		return RangeMul(a, b)
	default:
		return RangeDiv(a, b)
	}
}

func (a Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}

// satAdd adds two bound values, saturating mixed infinities toward the
// conservative direction dir (-1: lower bound, +1: upper bound).
func satAdd(x, y types.Value, dir int) (types.Value, error) {
	v, err := types.Add(x, y)
	if err == nil {
		return v, nil
	}
	if _, ok := err.(*types.ErrType); ok && (x.IsInf() || y.IsInf()) {
		if dir < 0 {
			return types.NegInf(), nil
		}
		return types.PosInf(), nil
	}
	return types.Null(), err
}

// isPoint reports whether v is a point by representation: its three
// components are the same value, bits included. For two such operands the
// corner rules compute op(a.SG, b.SG) three times, so the shortcuts below
// return exactly that value and that error. A Compare-certain triple such
// as [-0/0/-0] or [1/1.0/1] is not a point here and takes the corners.
func isPoint(v rangeval.V) bool {
	return types.Same(v.Lo, v.SG) && types.Same(v.SG, v.Hi)
}

// certainOf lifts a point operation's result: the corner rule's value and
// error for two point operands.
func certainOf(v types.Value, err error) (rangeval.V, error) {
	if err != nil {
		return rangeval.V{}, err
	}
	return rangeval.Certain(v), nil
}

// RangeAdd implements [a] + [b] per Definition 9.
func RangeAdd(a, b rangeval.V) (rangeval.V, error) {
	if isPoint(a) && isPoint(b) {
		return certainOf(types.Add(a.SG, b.SG))
	}
	return rangeAddCorners(a, b)
}

// rangeAddCorners is RangeAdd's bound rule for every operand.
func rangeAddCorners(a, b rangeval.V) (rangeval.V, error) {
	lo, err := satAdd(a.Lo, b.Lo, -1)
	if err != nil {
		return rangeval.V{}, err
	}
	hi, err := satAdd(a.Hi, b.Hi, 1)
	if err != nil {
		return rangeval.V{}, err
	}
	sg, err := types.Add(a.SG, b.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	return rangeval.New(lo, sg, hi), nil
}

// RangeSub implements [a] - [b]: lower bound a.lb - b.ub, upper a.ub - b.lb.
func RangeSub(a, b rangeval.V) (rangeval.V, error) {
	if isPoint(a) && isPoint(b) {
		// types.Sub is Add(a, Neg(b)), as rangeNeg then RangeAdd are.
		return certainOf(types.Sub(a.SG, b.SG))
	}
	nb, err := rangeNeg(b)
	if err != nil {
		return rangeval.V{}, err
	}
	return RangeAdd(a, nb)
}

func rangeNeg(a rangeval.V) (rangeval.V, error) {
	lo, err := types.Neg(a.Hi)
	if err != nil {
		return rangeval.V{}, err
	}
	hi, err := types.Neg(a.Lo)
	if err != nil {
		return rangeval.V{}, err
	}
	sg, err := types.Neg(a.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	return rangeval.New(lo, sg, hi), nil
}

// RangeMul implements [a] * [b]: min/max over the four bound products.
func RangeMul(a, b rangeval.V) (rangeval.V, error) {
	if isPoint(a) && isPoint(b) {
		return certainOf(types.Mul(a.SG, b.SG))
	}
	return rangeMulCorners(a, b)
}

// rangeMulCorners is RangeMul's bound rule for every operand.
func rangeMulCorners(a, b rangeval.V) (rangeval.V, error) {
	sg, err := types.Mul(a.SG, b.SG)
	if err != nil {
		return rangeval.V{}, err
	}
	prods := make([]types.Value, 0, 4)
	for _, x := range []types.Value{a.Lo, a.Hi} {
		for _, y := range []types.Value{b.Lo, b.Hi} {
			p, err := types.Mul(x, y)
			if err != nil {
				return rangeval.V{}, err
			}
			prods = append(prods, p)
		}
	}
	lo, hi := prods[0], prods[0]
	for _, p := range prods[1:] {
		lo = types.Min(lo, p)
		hi = types.Max(hi, p)
	}
	return rangeval.New(lo, sg, hi), nil
}

// RangeDiv implements [a] / [b]. If the divisor interval contains zero the
// result is unbounded, [-inf/sg/+inf], which soundly over-approximates the
// possible quotients (cf. the remark after Definition 9 that 1/e is
// undefined when the range of e spans zero; returning the full range keeps
// queries total). If the divisor is certainly zero, or zero in the selected
// guess world, division fails as in the deterministic semantics.
func RangeDiv(a, b rangeval.V) (rangeval.V, error) {
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
	clo, csg, chi := truth(c.Lo), truth(c.SG), truth(c.Hi)
	switch {
	case clo && chi: // certainly true
		return e.Then.EvalRange(t)
	case !clo && !chi: // certainly false
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
	sg := tv.SG
	if !csg {
		sg = ev.SG
	}
	return rangeval.New(types.Min(tv.Lo, ev.Lo), sg, types.Max(tv.Hi, ev.Hi)), nil
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
	null := types.Null()
	certainlyNull := types.Equal(v.Lo, null) && types.Equal(v.Hi, null)
	possiblyNull := v.Contains(null)
	return boolRange(certainlyNull, v.SG.IsNull(), possiblyNull), nil
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
		if n.Op == OpLeast {
			acc = rangeval.New(types.Min(acc.Lo, v.Lo), types.Min(acc.SG, v.SG), types.Min(acc.Hi, v.Hi))
		} else {
			acc = rangeval.New(types.Max(acc.Lo, v.Lo), types.Max(acc.SG, v.SG), types.Max(acc.Hi, v.Hi))
		}
	}
	return acc, nil
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
