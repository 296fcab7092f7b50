package baselines

import (
	"fmt"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/worlds"
)

// Symb reimplements the symbolic aggregation strategy (aggregate
// semimodule expressions à la Amsterdamer et al.; the paper extracted
// bounds with Z3, and this extracts them directly from the expressions).
// Aggregation results are kept as symbolic sums of guarded terms — one
// term per input tuple — so the representation scales with the aggregate
// INPUT, not the output. Chained aggregations nest: every step walks and
// re-wraps all terms of the previous step, which is exactly the cost
// profile that makes this approach uncompetitive for multi-aggregate
// queries (Figure 11).

// symTerm is one guarded contribution: when guard block takes alternative
// alt, the term contributes a value in [lo, hi].
type symTerm struct {
	guard   *blockRef // nil = unconditional
	alt     int
	lo, hi  types.Value
	nested  []symTerm // chained aggregation keeps sub-terms symbolically
	scaleLo types.Value
	scaleHi types.Value
}

// SymExpr is a symbolic aggregate expression for one group.
type SymExpr struct {
	Fn    ra.AggFn
	Terms []symTerm
}

// SymResult maps group keys to symbolic expressions.
type SymResult struct {
	Groups map[string]*SymExpr
	Order  []string
}

// ExecSymbChain evaluates a chain of aggregations symbolically: the first
// aggregation builds per-tuple terms; every further step re-aggregates the
// symbolic result (sum of the previous expression across groups), keeping
// all underlying terms. The final bounds are extracted by the interval
// solver.
func ExecSymbChain(db worlds.XDB, table string, valueCol, groupCol int, chain int) (lo, hi types.Value, err error) {
	rel, ok := db[table]
	if !ok {
		return types.Null(), types.Null(), fmt.Errorf("baselines: unknown table %q", table)
	}
	// Step 1: grouped symbolic sums.
	res := &SymResult{Groups: map[string]*SymExpr{}}
	for bi := range rel.Tuples {
		blk := &rel.Tuples[bi]
		certain := len(blk.Alts) == 1 && !blk.IsOptional()
		for ai, alt := range blk.Alts {
			key := alt[groupCol].String()
			g, okg := res.Groups[key]
			if !okg {
				g = &SymExpr{Fn: ra.AggSum}
				res.Groups[key] = g
				res.Order = append(res.Order, key)
			}
			term := symTerm{lo: alt[valueCol], hi: alt[valueCol], scaleLo: types.Int(1), scaleHi: types.Int(1)}
			if !certain {
				term.guard = &blockRef{rel: table, idx: bi}
				term.alt = ai
			}
			g.Terms = append(g.Terms, term)
		}
	}
	// Steps 2..chain: aggregate the previous layer's symbolic results
	// into a single symbolic expression, preserving all terms.
	cur := res
	for step := 1; step < chain; step++ {
		next := &SymResult{Groups: map[string]*SymExpr{}, Order: []string{"all"}}
		agg := &SymExpr{Fn: ra.AggSum}
		for _, k := range cur.Order {
			prev := cur.Groups[k]
			// Wrap the whole group expression as a nested term; the
			// symbolic representation grows with every chained step.
			agg.Terms = append(agg.Terms, symTerm{
				nested:  append([]symTerm(nil), prev.Terms...),
				scaleLo: types.Int(1), scaleHi: types.Int(1),
				lo: types.Int(0), hi: types.Int(0),
			})
		}
		next.Groups["all"] = agg
		cur = next
	}
	// Extract bounds from the final expression (summing the groups of the
	// last layer when it still has several).
	total := &SymExpr{Fn: ra.AggSum}
	for _, k := range cur.Order {
		total.Terms = append(total.Terms, cur.Groups[k].Terms...)
	}
	if len(total.Terms) == 0 {
		return types.Int(0), types.Int(0), nil
	}
	lo, hi, err = SolveBounds(total)
	return lo, hi, err
}

// SolveBounds extracts numeric bounds from a symbolic expression. Guarded
// terms from the same block are mutually exclusive: per block, the
// minimum/maximum single-alternative contribution (or zero when the block
// is also allowed to pick an alternative outside this group) bounds the
// block's effect. Unconditional terms contribute their value ranges
// directly. The walk visits every term of every nesting level — the cost
// that grows along aggregation chains.
func SolveBounds(e *SymExpr) (types.Value, types.Value, error) {
	type blockAgg struct{ lo, hi types.Value }
	perBlock := map[blockRef]*blockAgg{}
	lo, hi := types.Int(0), types.Int(0)
	var err error
	var walk func(ts []symTerm) error
	walk = func(ts []symTerm) error {
		for i := range ts {
			t := &ts[i]
			if len(t.nested) > 0 {
				if err := walk(t.nested); err != nil {
					return err
				}
				continue
			}
			if t.guard == nil {
				if lo, err = types.Add(lo, t.lo); err != nil {
					return err
				}
				if hi, err = types.Add(hi, t.hi); err != nil {
					return err
				}
				continue
			}
			ba, ok := perBlock[*t.guard]
			if !ok {
				// A guarded block may contribute nothing (alternative
				// outside the group or block absent).
				ba = &blockAgg{lo: types.Int(0), hi: types.Int(0)}
				perBlock[*t.guard] = ba
			}
			ba.lo = types.Min(ba.lo, t.lo)
			ba.hi = types.Max(ba.hi, t.hi)
		}
		return nil
	}
	if err := walk(e.Terms); err != nil {
		return lo, hi, err
	}
	for _, ba := range perBlock {
		if lo, err = types.Add(lo, ba.lo); err != nil {
			return lo, hi, err
		}
		if hi, err = types.Add(hi, ba.hi); err != nil {
			return lo, hi, err
		}
	}
	return lo, hi, nil
}

var (
	_ = expr.Expr(nil)
	_ = worlds.XTuple{}
)
