package core

import (
	"context"
	"fmt"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/rangeval"
)

// JoinRelations is the join kernel on materialized inputs — the strategy
// dispatch shared by the reference executor and the pipelined build side.
// It implements join over N^AU-relations (Section 7): the cross product
// multiplies annotations pointwise and the join condition is evaluated
// with range-annotated semantics, contributing a condition triple via M_N
// (Definition 20). Equality on uncertain attributes degenerates to an
// interval-overlap join.
//
// Three physical strategies:
//
//   - NaiveJoin: nested loop over all pairs (the paper's un-optimized
//     rewrite; quadratic).
//   - default: an exact hash-partitioned hybrid. Tuples whose
//     equality-join attributes are certain meet through a hash join on
//     their SG values (for certain values, possible-equality coincides
//     with SG equality); every pair involving an uncertain side is found
//     by probing an overlap index on the first equality pair's right
//     column. Produces exactly the naive result; a condition without an
//     equality pair falls back to the nested loop.
//   - JoinCompression > 0: the split + Cpr optimization of Section 10.4,
//     trading precision for a bounded possible-side size.
func JoinRelations(ctx context.Context, l, r *Relation, cond expr.Expr, opt Options) (*Relation, error) {
	w := opt.workerCount()
	if opt.JoinCompression > 0 {
		return joinOptimized(ctx, l.Dense(), r.Dense(), cond, opt.JoinCompression, w)
	}
	if opt.NaiveJoin {
		return joinNested(ctx, l.Dense(), r.Dense(), cond, w)
	}
	return joinHybrid(ctx, l, r, cond, opt.JoinBuildLeft, w)
}

// joinPair combines one pair of tuples under the condition, returning a
// zero-annotation tuple when the pair certainly does not join. A product
// of SG multiplicities that leaves int64 is an *types.ErrOverflow.
func joinPair(lt, rt Tuple, cond expr.Expr) (Tuple, error) {
	m, err := lt.M.mulChecked(rt.M)
	if err != nil {
		return Tuple{}, fmt.Errorf("core: join: %w", err)
	}
	vals := lt.Vals.Concat(rt.Vals)
	if cond != nil {
		cv, err := cond.EvalRange(vals)
		if err != nil {
			return Tuple{}, fmt.Errorf("core: join condition: %w", err)
		}
		// Each component of the condition's annotation is 0 or 1, so
		// this product cannot overflow.
		m = m.Mul(condMult(cv))
	}
	return Tuple{Vals: vals, M: m}, nil
}

// joinNested is the quadratic overlap join over all pairs: the oracle
// behind NaiveJoin, the strategy for conditions without an equality pair,
// and the compressed join's possible side. The outer rows are
// block-partitioned across workers; each block's pairs are produced in the
// serial order, and blocks concatenate in order.
func joinNested(ctx context.Context, l, r *Relation, cond expr.Expr, workers int) (*Relation, error) {
	out := New(l.Schema.Concat(r.Schema))
	if len(r.Tuples) == 0 {
		return out, nil
	}
	// Size outer chunks so each holds at least minParPairs pairs.
	minRows := (minParPairs + len(r.Tuples) - 1) / len(r.Tuples)
	spans := ChunkSpans(len(l.Tuples), workers, minRows)
	bufs := make([][]Tuple, len(spans))
	err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		var buf []Tuple
		for _, lt := range l.Tuples[s.Lo:s.Hi] {
			for _, rt := range r.Tuples {
				if err := p.Due(); err != nil {
					return err
				}
				tup, err := joinPair(lt, rt, cond)
				if err != nil {
					return err
				}
				if tup.M.Hi > 0 {
					buf = append(buf, tup)
				}
			}
		}
		bufs[c] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Tuples = concatTuples(bufs)
	return out, nil
}

// joinSwept joins each left row in li with the right rows of idx whose
// range on the indexed column overlaps the left row's range on column
// lCol, in ascending right-row order. The left rows are chunked across
// workers as joinNested chunks them, and chunks concatenate in order, so
// the output equals the nested loop over li × idx's rows minus the pairs
// the index rules out.
func joinSwept(ctx context.Context, l, r *Relation, cond expr.Expr, li []int, lCol int, idx *overlapIndex, workers int) ([]Tuple, error) {
	if len(li) == 0 || len(idx.ents) == 0 {
		return nil, nil
	}
	minRows := (minParPairs + len(idx.ents) - 1) / len(idx.ents)
	spans := ChunkSpans(len(li), workers, minRows)
	bufs := make([][]Tuple, len(spans))
	err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		var buf []Tuple
		var cand []int
		for _, i := range li[s.Lo:s.Hi] {
			if err := p.Due(); err != nil {
				return err
			}
			lt := l.Tuples[i]
			cand = idx.probe(lt.Vals[lCol].Lo, lt.Vals[lCol].Hi, cand[:0])
			for _, j := range cand {
				if err := p.Due(); err != nil {
					return err
				}
				tup, err := joinPair(lt, r.Tuples[j], cond)
				if err != nil {
					return err
				}
				if tup.M.Hi > 0 {
					buf = append(buf, tup)
				}
			}
		}
		bufs[c] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatTuples(bufs), nil
}

func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// joinHybrid partitions both inputs on the certainty of the equality-join
// attributes and hash joins the certain parts. The two quadrants with an
// uncertain side, lUnc × r and lCert × rUnc, probe an overlap index on the
// first equality pair's right column with the left row's range on its
// left column. Exact: identical result to joinNested, because a pair the
// index rules out has disjoint ranges on that pair, so the conjunct is not
// even possibly true and the pair's M.Hi is 0 — the same rule the hash
// quadrant applies to unequal certain keys. Each quadrant emits its pairs
// in the nested loop's order. The hash-probe side and both swept quadrants
// are partitioned across workers.
func joinHybrid(ctx context.Context, l, r *Relation, cond expr.Expr, buildLeft bool, workers int) (*Relation, error) {
	split := l.Schema.Arity()
	var lCols, rCols []int
	if cond != nil {
		for _, c := range expr.Conjuncts(cond) {
			if lix, rix, ok := expr.EquiPair(c, split); ok {
				lCols = append(lCols, lix)
				rCols = append(rCols, rix)
			}
		}
	}
	if len(lCols) == 0 {
		return joinNested(ctx, l.Dense(), r.Dense(), cond, workers)
	}
	l, r = l.Dense(), r.Dense()

	lCert, lUnc := partitionCertain(l, lCols)
	rCert, rUnc := partitionCertain(r, rCols)

	out := New(l.Schema.Concat(r.Schema))

	// Certain x certain: hash join on SG values of the join columns. The
	// full condition is still evaluated with range semantics to account
	// for residual conjuncts over other (possibly uncertain) attributes.
	// The build side is sequential; probes run chunked over workers.
	// Options.JoinBuildLeft (set per join by the stats-driven lowering)
	// feeds the index from the left input instead of the right; output
	// columns are unchanged — only which side the probe loop iterates
	// over (and therefore the emission order of this quadrant) differs,
	// and every result is canonically merged.
	build, probe := rCert, lCert
	buildRel, probeRel := r, l
	buildCols, probeCols := rCols, lCols
	if buildLeft {
		build, probe = lCert, rCert
		buildRel, probeRel = l, r
		buildCols, probeCols = lCols, rCols
	}
	index := make(map[string][]int, len(build))
	for _, j := range build {
		k := sgKeyOn(buildRel.Tuples[j].Vals, buildCols)
		index[k] = append(index[k], j)
	}
	spans := ChunkSpans(len(probe), workers, minParTuples)
	bufs := make([][]Tuple, len(spans))
	err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		var buf []Tuple
		for _, i := range probe[s.Lo:s.Hi] {
			if err := p.Due(); err != nil {
				return err
			}
			k := sgKeyOn(probeRel.Tuples[i].Vals, probeCols)
			for _, j := range index[k] {
				if err := p.Due(); err != nil {
					return err
				}
				li, ri := i, j
				if buildLeft {
					li, ri = j, i
				}
				tup, err := joinPair(l.Tuples[li], r.Tuples[ri], cond)
				if err != nil {
					return err
				}
				if tup.M.Hi > 0 {
					buf = append(buf, tup)
				}
			}
		}
		bufs[c] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.Tuples = concatTuples(bufs)

	// Pairs involving an uncertain side: overlap-index probes.
	if len(lUnc) > 0 {
		part, err := joinSwept(ctx, l, r, cond, lUnc, lCols[0], newOverlapIndex(r, allRows(len(r.Tuples)), rCols[0]), workers)
		if err != nil {
			return nil, err
		}
		out.Tuples = append(out.Tuples, part...)
	}
	if len(lCert) > 0 && len(rUnc) > 0 {
		part, err := joinSwept(ctx, l, r, cond, lCert, lCols[0], newOverlapIndex(r, rUnc, rCols[0]), workers)
		if err != nil {
			return nil, err
		}
		out.Tuples = append(out.Tuples, part...)
	}
	return out, nil
}

// partitionCertain splits row indices by whether all listed attributes are
// certain.
func partitionCertain(r *Relation, cols []int) (certain, uncertain []int) {
	for i, t := range r.Tuples {
		ok := true
		for _, c := range cols {
			if !t.Vals[c].IsCertain() {
				ok = false
				break
			}
		}
		if ok {
			certain = append(certain, i)
		} else {
			uncertain = append(uncertain, i)
		}
	}
	return certain, uncertain
}

func sgKeyOn(t rangeval.Tuple, cols []int) string {
	var buf []byte
	for _, c := range cols {
		buf = t[c].SG.AppendKey(buf)
	}
	return string(buf)
}

// joinOptimized is the split + Cpr optimization (Section 10.4):
//
//	opt(Q1 ⋈ Q2) = (split_sg(Q1) ⋈_sg split_sg(Q2))
//	             ∪ (Cpr(split↑(Q1)) ⋈ Cpr(split↑(Q2)))
//
// The SG join sees only attribute-certain tuples and uses the exact hybrid
// path (pure hash join there); the possible join is bounded by ct tuples
// per side. Lemma 10.1: the result bounds the un-optimized result.
func joinOptimized(ctx context.Context, l, r *Relation, cond expr.Expr, ct, workers int) (*Relation, error) {
	lSG, lUp, err := splitN(ctx, l, workers)
	if err != nil {
		return nil, err
	}
	rSG, rUp, err := splitN(ctx, r, workers)
	if err != nil {
		return nil, err
	}

	sgJoin, err := joinHybrid(ctx, lSG, rSG, cond, false, workers)
	if err != nil {
		return nil, err
	}

	// Choose compression attributes: prefer the first equality conjunct so
	// both sides share bucket boundaries and each compressed tuple joins
	// with at most a few partners.
	split := l.Schema.Arity()
	la, ra := 0, 0
	shared := false
	if cond != nil {
		for _, c := range expr.Conjuncts(cond) {
			if lix, rix, ok := expr.EquiPair(c, split); ok {
				la, ra, shared = lix, rix, true
				break
			}
		}
	}
	var lCpr, rCpr *Relation
	if shared {
		bounds := sharedBoundaries(lUp, la, rUp, ra, ct)
		lCpr = CompressWithBoundaries(lUp, la, bounds)
		rCpr = CompressWithBoundaries(rUp, ra, bounds)
	} else {
		lCpr = Compress(lUp, la, ct)
		rCpr = Compress(rUp, ra, ct)
	}
	posJoin, err := joinNested(ctx, lCpr, rCpr, cond, workers)
	if err != nil {
		return nil, err
	}

	out := New(l.Schema.Concat(r.Schema))
	out.Tuples = append(out.Tuples, sgJoin.Tuples...)
	out.Tuples = append(out.Tuples, posJoin.Tuples...)
	return out, nil
}
