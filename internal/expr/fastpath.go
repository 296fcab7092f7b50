package expr

// CertainFastSafe reports whether, for every certain, null-free input
// tuple, Eval over the flat values is bit-identical to EvalRange over the
// lifted [v/v/v] tuple — same value (a certain triple around the
// deterministic result) and same error behavior. CompileVec takes exactly
// these expressions.
//
// Two constructions break that equivalence and are rejected:
//
//   - Null literals. A certain input tuple cannot carry nulls on the fast
//     path, but a NULL constant re-introduces them, and comparing two
//     certain nulls evaluates to the maybe-triple [F/F/T] under range
//     semantics while deterministic evaluation yields plain false.
//   - Logical connectives whose right operand can fail. Eval
//     short-circuits (FALSE AND 1/0 = FALSE) while EvalRange always
//     evaluates both sides (and errors), so the right subtree of every
//     connective must be incapable of erroring.
//
// Unknown expression node types are rejected conservatively.
func CertainFastSafe(e Expr) bool {
	switch n := e.(type) {
	case Const:
		return !n.V.IsNull()
	case Attr:
		return true
	case Logic:
		return CertainFastSafe(n.L) && CertainFastSafe(n.R) && errFree(n.R)
	case Not:
		return CertainFastSafe(n.E)
	case Cmp:
		return CertainFastSafe(n.L) && CertainFastSafe(n.R)
	case Arith:
		return CertainFastSafe(n.L) && CertainFastSafe(n.R)
	case If:
		return CertainFastSafe(n.Cond) && CertainFastSafe(n.Then) && CertainFastSafe(n.Else)
	case IsNull:
		return CertainFastSafe(n.E)
	case NAry:
		for _, a := range n.Args {
			if !CertainFastSafe(a) {
				return false
			}
		}
		return true
	}
	return false
}

// errFree reports whether evaluating e can never return an error, so that
// skipping it under deterministic short-circuit cannot hide a failure
// that range evaluation would raise. Arithmetic is never error-free
// (division by zero, type errors on non-numeric data); comparisons and
// connectives are total. Attribute references assume a planner-validated
// index — both semantics bound-check identically on well-formed plans.
func errFree(e Expr) bool {
	switch n := e.(type) {
	case Const, Attr:
		return true
	case Logic:
		return errFree(n.L) && errFree(n.R)
	case Not:
		return errFree(n.E)
	case Cmp:
		return errFree(n.L) && errFree(n.R)
	case If:
		return errFree(n.Cond) && errFree(n.Then) && errFree(n.Else)
	case IsNull:
		return errFree(n.E)
	case NAry:
		if len(n.Args) == 0 {
			return false // zero-argument least/greatest errors
		}
		for _, a := range n.Args {
			if !errFree(a) {
				return false
			}
		}
		return true
	}
	return false // Arith and unknown nodes
}
