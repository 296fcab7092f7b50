package core

import (
	"context"
	"fmt"

	"github.com/audb/audb/internal/ctxpoll"
)

// DiffRelations implements bag set difference over N^AU-relations
// (Definition 22). The left input is first SG-combined (Ψ, Definition 21)
// so that each selected-guess tuple is encoded once. For each combined
// tuple t:
//
//	lo(t) = Ψ(L)(t).lo  monus  Σ_{t ≃ t'} R(t').hi     (any possibly-equal
//	                                                    right tuple may
//	                                                    cancel it)
//	sg(t) = Ψ(L)(t).sg  monus  Σ_{t.sg = t'.sg} R(t').sg
//	hi(t) = Ψ(L)(t).hi  monus  Σ_{t ≡ t'} R(t').lo     (only certainly-equal
//	                                                    right tuples are
//	                                                    guaranteed to cancel)
//
// Theorem 4: this semantics preserves bounds; the pointwise monus does not.
//
// Strategy: the right side is read once. Every right tuple sums into rSG
// by its SG key. An attribute-certain right tuple (a point) also sums its
// lo and hi by that key; the others (boxes) go into an overlap index on
// the first attribute. For a point left tuple t, a point t' satisfies
// t ≃ t' iff t ≡ t' iff the two are Compare-equal on every attribute iff
// their SG keys are equal, so both sums are one lookup each, plus the
// probed boxes that overlap t on every attribute. A box left tuple is
// certainly equal to nothing; its overlap sum comes from probing an index
// over all of r, again checking every attribute. The sums are int64: an SG
// sum that leaves int64 is an *types.ErrOverflow, as the SG world reports
// it, and the upper-bound sums saturate at MaxInt64 (addHi), so the order
// rows are added in cannot change them.
func DiffRelations(ctx context.Context, l, r *Relation) (*Relation, error) {
	if l.Schema.Arity() != r.Schema.Arity() {
		return nil, fmt.Errorf("core: difference arity mismatch %s vs %s", l.Schema, r.Schema)
	}
	return diffRelations(ctx, l.Dense(), r.Dense())
}

func diffRelations(ctx context.Context, l, r *Relation) (*Relation, error) {
	comb, err := l.SGCombine()
	if err != nil {
		return nil, fmt.Errorf("core: difference: %w", err)
	}
	out := New(l.Schema)
	p := ctxpoll.New(ctx)

	rSG := map[string]int64{}
	pointLo, pointHi := map[string]int64{}, map[string]int64{}
	var boxes []int
	for j, rt := range r.Tuples {
		if err := p.Due(); err != nil {
			return nil, err
		}
		k := rt.Vals.SGKey()
		sum, err := Mult{SG: rSG[k]}.AddChecked(Mult{SG: rt.M.SG})
		if err != nil {
			return nil, fmt.Errorf("core: difference: %w", err)
		}
		rSG[k] = sum.SG
		if rt.Vals.IsCertain() {
			pointLo[k] += rt.M.Lo
			pointHi[k] = addHi(pointHi[k], rt.M.Hi)
		} else {
			boxes = append(boxes, j)
		}
	}
	boxIdx := newOverlapIndex(r, boxes, 0)
	var allIdx *overlapIndex // over every right tuple; built for the first box left tuple
	var cand []int

	for _, lt := range comb.Tuples {
		if err := p.Due(); err != nil {
			return nil, err
		}
		k := lt.Vals.SGKey()
		var overlapHi, certLo int64
		idx := boxIdx
		if lt.Vals.IsCertain() {
			overlapHi, certLo = pointHi[k], pointLo[k] // t ≃ t' and t ≡ t' over points
		} else {
			if allIdx == nil {
				allIdx = newOverlapIndex(r, allRows(len(r.Tuples)), 0)
			}
			idx = allIdx
		}
		cand = cand[:0]
		if len(idx.ents) > 0 { // an arity-0 relation has only points: both indexes stay empty
			cand = idx.probe(lt.Vals[0].Lo, lt.Vals[0].Hi, cand)
		}
		for _, j := range cand {
			if err := p.Due(); err != nil {
				return nil, err
			}
			if rt := r.Tuples[j]; lt.Vals.Overlaps(rt.Vals) { // t ≃ t'
				overlapHi = addHi(overlapHi, rt.M.Hi)
			}
		}
		m := Mult{
			Lo: monus(lt.M.Lo, overlapHi),
			SG: monus(lt.M.SG, rSG[k]),
			Hi: monus(lt.M.Hi, certLo),
		}
		// monus with different subtrahends can break the triple ordering
		// only towards tighter-than-valid; clamp upward conservatively.
		if m.SG > m.Hi {
			m.SG = m.Hi
		}
		if m.Lo > m.SG {
			m.Lo = m.SG
		}
		if m.Hi > 0 {
			out.Add(Tuple{Vals: lt.Vals, M: m})
		}
	}
	return out, nil
}
