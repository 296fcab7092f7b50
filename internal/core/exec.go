package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// Options tune the performance/precision trade-offs of Section 10.4-10.5.
// The zero value evaluates the exact (uncompressed) semantics.
type Options struct {
	// JoinCompression, when > 0, applies the split + Cpr optimization to
	// joins (Section 10.4): the attribute-uncertain parts of both inputs
	// are compressed to at most this many tuples before the overlap join.
	JoinCompression int
	// AggCompression, when > 0, compresses the possible-group side of the
	// aggregation overlap join to at most this many tuples (Section 10.5).
	AggCompression int
	// NaiveJoin forces the pure nested-loop overlap join, disabling the
	// exact hash-partitioned fast path. Used to reproduce the "Non-Op"
	// series of Figure 14.
	NaiveJoin bool
	// Workers is the number of goroutines the executor may use for the hot
	// operators (hybrid join, aggregation, selection, projection, split).
	// 0 (the zero value) means runtime.GOMAXPROCS(0); 1 forces the serial
	// reference evaluation. Results are identical for every worker count.
	Workers int
	// JoinBuildLeft builds the hybrid join's hash index over the left
	// input's certain partition and probes with the right — the
	// stats-driven physical lowering (internal/phys) sets it per join
	// when the left input is estimated smaller. Results are identical
	// either way (only the emission order of the certain×certain quadrant
	// changes, and every result is canonically merged).
	JoinBuildLeft bool
	// SizeHint is the planner's estimated output rows for the operator
	// this Options value is applied to (0 = no estimate). The
	// aggregation kernel pre-sizes its group maps from it (capped by the
	// actual input size); it never affects results. Set per operator by
	// the stats-driven lowering, never database-wide.
	SizeHint int
}

// Compressed reports whether either split+compress optimization is on.
// Compression makes intermediate results sensitive to how value-equivalent
// tuples are merged (equi-depth bucket boundaries count tuples), which is
// why the pipelined executor (internal/phys) materializes the legacy merge
// points when it is enabled.
func (o Options) Compressed() bool {
	return o.JoinCompression > 0 || o.AggCompression > 0
}

// Exec evaluates an RA_agg plan over an AU-database using the
// bound-preserving semantics of Sections 7-9 and returns the merged result.
// This is the operator-at-a-time reference executor: every intermediate is
// a fully materialized Relation. The pipelined executor (internal/phys)
// produces bit-identical results while streaming.
//
// Operators hand ownership of their outputs downstream, so the final merge
// works in place; only a plan whose root is a bare table scan pays a
// (shallow) defensive copy. Result tuples may share attribute-range storage
// with the base tables — treat results as read-only, as all engines do.
//
// Cancellation of ctx aborts the evaluation promptly — operators check the
// context cooperatively at chunk boundaries and inside their hot loops
// (including sorting and the final merge) — and the error is ctx.Err(). A
// nil ctx is treated as context.Background().
func Exec(ctx context.Context, n ra.Node, db DB, opt Options) (*Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if n == nil {
		return nil, fmt.Errorf("core: nil plan")
	}
	cat := ra.CatalogMap(db.Schemas())
	out, owned, err := exec(ctx, n, db, cat, opt)
	if err != nil {
		return nil, err
	}
	return own(out, owned).MergeCtx(ctx)
}

// own returns in when the caller already owns it, and a shallow clone
// otherwise (see Relation.ShallowClone for what ownership covers).
func own(in *Relation, owned bool) *Relation {
	if owned {
		return in
	}
	return in.ShallowClone()
}

// exec evaluates a plan node. The returned flag reports whether the caller
// owns the result — may reorder its Tuples slice and mutate annotations.
// Every operator builds a fresh output; only a base-table scan returns a
// shared (unowned) relation.
func exec(ctx context.Context, n ra.Node, db DB, cat ra.Catalog, opt Options) (*Relation, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if ra.IsNil(n) {
		// A nil child reached through a nested operator (e.g. a
		// hand-built plan with a missing input).
		return nil, false, fmt.Errorf("core: nil plan node")
	}
	// one evaluates a unary operator's input; two evaluates a binary
	// operator's inputs left to right (Join stays inline to label which
	// side failed).
	one := func(c ra.Node) (*Relation, bool, error) { return exec(ctx, c, db, cat, opt) }
	two := func(left, right ra.Node) (*Relation, *Relation, error) {
		l, _, err := exec(ctx, left, db, cat, opt)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := exec(ctx, right, db, cat, opt)
		if err != nil {
			return nil, nil, err
		}
		return l, r, nil
	}
	switch t := n.(type) {
	case *ra.Scan:
		r, ok := db.LookupFold(t.Table)
		if !ok {
			return nil, false, schema.UnknownTable("core", t.Table, db.Names())
		}
		return r, false, nil
	case *ra.Select:
		in, _, err := one(t.Child)
		if err != nil {
			return nil, false, err
		}
		out, err := ApplySelect(ctx, in, t.Pred, opt)
		return out, true, err
	case *ra.Project:
		in, _, err := one(t.Child)
		if err != nil {
			return nil, false, err
		}
		out, err := ApplyProject(ctx, in, t.Cols, opt)
		return out, true, err
	case *ra.Join:
		l, _, err := exec(ctx, t.Left, db, cat, opt)
		if err != nil {
			return nil, false, fmt.Errorf("core: join left input: %w", err)
		}
		r, _, err := exec(ctx, t.Right, db, cat, opt)
		if err != nil {
			return nil, false, fmt.Errorf("core: join right input: %w", err)
		}
		out, err := JoinRelations(ctx, l, r, t.Cond, opt)
		return out, true, err
	case *ra.Union:
		l, r, err := two(t.Left, t.Right)
		if err != nil {
			return nil, false, err
		}
		out, err := UnionRelations(ctx, l, r)
		return out, true, err
	case *ra.Diff:
		l, r, err := two(t.Left, t.Right)
		if err != nil {
			return nil, false, err
		}
		out, err := DiffRelations(ctx, l, r)
		return out, true, err
	case *ra.Distinct:
		in, _, err := one(t.Child)
		if err != nil {
			return nil, false, err
		}
		out, err := DistinctRelation(ctx, in, opt)
		return out, true, err
	case *ra.Agg:
		in, _, err := one(t.Child)
		if err != nil {
			return nil, false, fmt.Errorf("core: aggregation input: %w", err)
		}
		outSchema, err := ra.InferSchema(t, cat)
		if err != nil {
			return nil, false, err
		}
		out, err := AggRelations(ctx, in, t.GroupBy, t.Aggs, outSchema, opt)
		return out, true, err
	case *ra.OrderBy:
		in, owned, err := one(t.Child)
		if err != nil {
			return nil, false, err
		}
		out, err := ApplyOrderBy(ctx, own(in, owned), t.Keys, t.Desc)
		return out, true, err
	case *ra.Limit:
		in, owned, err := one(t.Child)
		if err != nil {
			return nil, false, err
		}
		out, err := ApplyLimit(ctx, own(in, owned), t.N)
		return out, true, err
	}
	return nil, false, fmt.Errorf("core: unknown node %T", n)
}

// condMult maps a range-annotated boolean to an N^AU element (Definition 19
// and 20): true components become 1, false components 0.
func condMult(v rangeval.V) Mult { return TruthMult(expr.TruthOf(v)) }

// TruthMult is condMult over a condition's truths, as the range-vector
// program returns them.
func TruthMult(t expr.Truth) Mult {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	return Mult{b2i(t.Lo), b2i(t.SG), b2i(t.Hi)}
}

// FilterTuple is the per-tuple selection kernel (Section 7): the tuple's
// annotation is multiplied by the condition's annotation triple
// (Definition 19/20). keep is false for tuples whose upper bound drops to
// zero — they are certainly absent and must not be emitted. The returned
// tuple shares the input's attribute ranges (selection never mutates
// values), which is what lets the pipelined executor stream it clone-free.
func FilterTuple(t Tuple, pred expr.Expr) (out Tuple, keep bool, err error) {
	v, err := pred.EvalRange(t.Vals)
	if err != nil {
		return Tuple{}, false, fmt.Errorf("core: selection: %w", err)
	}
	m := t.M.Mul(condMult(v)) // a product by 0 or 1: it cannot overflow
	if m.Hi <= 0 {
		return Tuple{}, false, nil
	}
	return Tuple{Vals: t.Vals, M: m}, true, nil
}

// ApplySelect implements σ over N^AU on a materialized input. Tuples are
// predicate-checked in parallel chunks; output order is the input order.
// A sparse input is read through a transient dense view.
func ApplySelect(ctx context.Context, in *Relation, pred expr.Expr, opt Options) (*Relation, error) {
	in = in.Dense()
	out := New(in.Schema)
	var err error
	out.Tuples, err = parMapTuples(ctx, in.Tuples, opt.workerCount(), func(tup Tuple, emit func(Tuple)) error {
		ot, keep, err := FilterTuple(tup, pred)
		if err != nil {
			return err
		}
		if keep {
			emit(ot)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectTuple is the per-tuple generalized-projection kernel: range
// expressions are evaluated per Definition 9; the annotation is unchanged.
func ProjectTuple(t Tuple, cols []ra.ProjCol) (Tuple, error) {
	row := make(rangeval.Tuple, len(cols))
	for j, c := range cols {
		v, err := c.E.EvalRange(t.Vals)
		if err != nil {
			return Tuple{}, fmt.Errorf("core: projection %s: %w", c.Name, err)
		}
		row[j] = v
	}
	return Tuple{Vals: row, M: t.M}, nil
}

// ApplyProject implements generalized projection on a materialized input.
// Value-equivalent output tuples are merged (summing annotations), which is
// why Project is a merge point for the pipelined executor whenever merge
// granularity matters (compression enabled).
func ApplyProject(ctx context.Context, in *Relation, cols []ra.ProjCol, opt Options) (*Relation, error) {
	attrs := make([]string, len(cols))
	for i, c := range cols {
		attrs[i] = c.Name
	}
	out := New(schema.Schema{Attrs: attrs})
	in = in.Dense()
	var err error
	out.Tuples, err = parMapTuples(ctx, in.Tuples, opt.workerCount(), func(tup Tuple, emit func(Tuple)) error {
		ot, err := ProjectTuple(tup, cols)
		if err != nil {
			return err
		}
		emit(ot)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.MergeCtx(ctx)
}

// UnionRelations adds annotations pointwise and merges value-equivalent
// tuples.
func UnionRelations(ctx context.Context, l, r *Relation) (*Relation, error) {
	if l.Schema.Arity() != r.Schema.Arity() {
		return nil, fmt.Errorf("core: union arity mismatch %s vs %s", l.Schema, r.Schema)
	}
	l, r = l.Dense(), r.Dense()
	out := New(l.Schema)
	out.Tuples = make([]Tuple, 0, len(l.Tuples)+len(r.Tuples))
	out.Tuples = append(out.Tuples, l.Tuples...)
	out.Tuples = append(out.Tuples, r.Tuples...)
	return out.MergeCtx(ctx)
}

// DistinctRelation implements duplicate elimination δ over N^AU on a
// materialized input. Tuples are first SG-combined (Definition 21), so
// distinct stored tuples have distinct selected-guess values. The SG
// component is then exactly δ of the SG multiplicity. The upper bound drops
// to 1 only for attribute-certain tuples; an attribute-uncertain tuple may
// stand for up to Hi distinct tuples and keeps its upper bound. The lower
// bound survives δ only for tuples that do not ≃-overlap any other stored
// tuple: overlapping tuples may collapse to one tuple in some world, in
// which case duplicate elimination leaves a single copy that cannot witness
// a positive lower bound for both.
func DistinctRelation(ctx context.Context, in *Relation, opt Options) (*Relation, error) {
	comb, err := in.SGCombine()
	if err != nil {
		return nil, fmt.Errorf("core: distinct: %w", err)
	}
	out := New(in.Schema)
	rows := make([]Tuple, len(comb.Tuples))
	spans := ChunkSpans(len(comb.Tuples), opt.workerCount(), minParGroups)
	err = runSpans(ctx, spans, func(_ int, s Span, p *ctxpoll.Poll) error {
		for i := s.Lo; i < s.Hi; i++ {
			tup := comb.Tuples[i]
			m := Mult{Lo: 0, SG: delta(tup.M.SG), Hi: tup.M.Hi}
			if tup.Vals.IsCertain() {
				m.Hi = delta(m.Hi)
			}
			overlapsOther := false
			for j, other := range comb.Tuples {
				if err := p.Due(); err != nil {
					return err
				}
				if i != j && tup.Vals.Overlaps(other.Vals) {
					overlapsOther = true
					break
				}
			}
			if !overlapsOther {
				m.Lo = delta(tup.M.Lo)
			}
			rows[i] = Tuple{Vals: tup.Vals, M: m}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	merge := ctxpoll.New(ctx)
	for _, row := range rows {
		if err := merge.Due(); err != nil {
			return nil, err
		}
		out.Add(row)
	}
	return out, nil
}

// OrderCompare is the ORDER BY comparison of presentation sorting. It
// compares only the selected-guess (SG) component of the key attributes —
// intentionally, per the paper's Section 6 semantics: an AU-relation
// annotates one selected-guess world, and presentation order is defined in
// that world, exactly as a conventional database would order the
// selected-guess answer (the EngineSGW answer sorts identically). Attribute
// bounds do not participate: two tuples whose [lb, ub] intervals overlap —
// or even contain one another — in any pattern compare solely by their SG
// values, and SG ties are broken by the (stable) input order, never by
// bounds. TestOrderBySGSemantics guards this against accidental change; do
// not "fix" this to consider Lo/Hi without revisiting the paper's
// Definition 13.
func OrderCompare(a, b rangeval.Tuple, keys []int, desc bool) int {
	for _, k := range keys {
		if c := types.Compare(a[k].SG, b[k].SG); c != 0 {
			if desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// sortCancelled carries ctx.Err() out of a sort.SliceStable comparison.
type sortCancelled struct{ err error }

// SortTuples stable-sorts ts in place by the SG values of the key columns
// (see OrderCompare for why only SG participates). Cancellation is checked
// at ctxpoll stride inside the comparison function, so even a large sort
// aborts with ctx.Err() well before completing.
func SortTuples(ctx context.Context, ts []Tuple, keys []int, desc bool) (err error) {
	p := ctxpoll.New(ctx)
	defer func() {
		if r := recover(); r != nil {
			sc, ok := r.(sortCancelled)
			if !ok {
				panic(r)
			}
			err = sc.err
		}
	}()
	sort.SliceStable(ts, func(i, j int) bool {
		if e := p.Due(); e != nil {
			panic(sortCancelled{err: e})
		}
		return OrderCompare(ts[i].Vals, ts[j].Vals, keys, desc) < 0
	})
	return nil
}

// ApplyOrderBy sorts in place and returns its input; it takes ownership of
// in (callers pass an owned relation, see exec).
func ApplyOrderBy(ctx context.Context, in *Relation, keys []int, desc bool) (*Relation, error) {
	in.densifyInPlace() // owned by contract; sorting needs the dense layout
	if err := SortTuples(ctx, in.Tuples, keys, desc); err != nil {
		return nil, err
	}
	return in, nil
}

// ApplyLimit merges value-equivalent tuples, then truncates to the first n
// rows; it takes ownership of in. Limit applies to merged rows — under
// uncertainty the row order is that of the selected-guess world — so the
// whole input participates in the merge even when only n rows survive (the
// pipelined executor does the same with O(n) state).
func ApplyLimit(ctx context.Context, in *Relation, n int) (*Relation, error) {
	out, err := in.MergeCtx(ctx)
	if err != nil {
		return nil, err
	}
	if n < 0 {
		n = 0
	}
	if n < len(out.Tuples) {
		out.Tuples = out.Tuples[:n]
	}
	return out, nil
}
