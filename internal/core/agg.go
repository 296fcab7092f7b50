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

// aggMonoid captures the aggregation monoids of Section 9.1 (SUM, MIN,
// MAX; COUNT is SUM over indicator values, AVG is derived from SUM and
// COUNT).
type aggMonoid uint8

const (
	monoidSum aggMonoid = iota
	monoidMin
	monoidMax
)

// neutral returns 0_M.
func (m aggMonoid) neutral() types.Value {
	switch m {
	case monoidSum:
		return types.Int(0)
	case monoidMin:
		return types.PosInf()
	default:
		return types.NegInf()
	}
}

// plus is +_M on domain values.
func (m aggMonoid) plus(a, b types.Value) (types.Value, error) {
	switch m {
	case monoidSum:
		return types.Add(a, b)
	case monoidMin:
		return types.Min(a, b), nil
	default:
		return types.Max(a, b), nil
	}
}

// star is k ∗_{N,M} m (Section 9.1): SUM scales by the multiplicity,
// MIN/MAX are the identity unless the multiplicity is zero, in which case
// the neutral element results.
func (m aggMonoid) star(k int64, v types.Value) (types.Value, error) {
	switch m {
	case monoidSum:
		return types.Mul(types.Int(k), v)
	default:
		if k == 0 {
			return m.neutral(), nil
		}
		return v, nil
	}
}

// starBounds computes the lower/upper components of ⊛_M (Definition 23):
// min/max over the four combinations of multiplicity bounds and value
// bounds.
func (m aggMonoid) starBounds(k Mult, v rangeval.V) (lo, hi types.Value, err error) {
	if k.Lo == k.Hi && types.Equal(v.Lo, v.Hi) {
		// Certain multiplicity and value: all four combinations are the
		// same star call, so one evaluation gives lo = hi (bit-identical
		// to the loop below, which would fold four equal results).
		x, err := m.star(k.Lo, v.Lo)
		if err != nil {
			return types.Null(), types.Null(), err
		}
		return x, x, nil
	}
	first := true
	for _, kk := range []int64{k.Lo, k.Hi} {
		for _, vv := range []types.Value{v.Lo, v.Hi} {
			x, err := m.star(kk, vv)
			if err != nil {
				return types.Null(), types.Null(), err
			}
			if first {
				lo, hi = x, x
				first = false
				continue
			}
			lo = types.Min(lo, x)
			hi = types.Max(hi, x)
		}
	}
	return lo, hi, nil
}

// aggPlan is the per-aggregate evaluation plan.
type aggPlan struct {
	spec   ra.AggSpec
	monoid aggMonoid
	// arg computes the range-annotated input value of the aggregate for
	// one tuple. For count it is the not-null indicator.
	arg func(rangeval.Tuple) (rangeval.V, error)
	// isAvg marks AVG, computed from a sum and a count(*).
	isAvg bool
}

func planAggs(specs []ra.AggSpec) ([]aggPlan, error) {
	plans := make([]aggPlan, 0, len(specs))
	for _, s := range specs {
		if s.Distinct {
			return nil, fmt.Errorf("core: DISTINCT aggregates are not supported over AU-DBs (aggregate %s)", s.Name)
		}
		p := aggPlan{spec: s}
		switch s.Fn {
		case ra.AggSum:
			p.monoid = monoidSum
			p.arg = rangeArg(s.Arg)
		case ra.AggMin:
			p.monoid = monoidMin
			p.arg = rangeArg(s.Arg)
		case ra.AggMax:
			p.monoid = monoidMax
			p.arg = rangeArg(s.Arg)
		case ra.AggCount:
			p.monoid = monoidSum
			p.arg = countArg(s.Arg)
		case ra.AggAvg:
			p.monoid = monoidSum
			p.arg = rangeArg(s.Arg)
			p.isAvg = true
		default:
			return nil, fmt.Errorf("core: unknown aggregate %v", s.Fn)
		}
		plans = append(plans, p)
	}
	return plans, nil
}

// rangeArg evaluates the aggregate argument with range semantics.
func rangeArg(e expr.Expr) func(rangeval.Tuple) (rangeval.V, error) {
	return func(t rangeval.Tuple) (rangeval.V, error) { return e.EvalRange(t) }
}

// countArg yields the indicator [0/0/0] or [1/1/1] (or an uncertain
// indicator for possibly-null arguments); count(*) has a nil argument and
// always counts 1.
func countArg(e expr.Expr) func(rangeval.Tuple) (rangeval.V, error) {
	one := rangeval.Certain(types.Int(1))
	if e == nil {
		return func(rangeval.Tuple) (rangeval.V, error) { return one, nil }
	}
	ind := expr.If{
		Cond: expr.IsNull{E: e},
		Then: expr.CInt(0),
		Else: expr.CInt(1),
	}
	return func(t rangeval.Tuple) (rangeval.V, error) { return ind.EvalRange(t) }
}

// contrib is one (possibly merged) contribution to the aggregation overlap
// join: group-by ranges, tuple annotation and the per-aggregate argument
// ranges (the last slot additionally carries the count indicator used by
// AVG).
type contrib struct {
	gb   rangeval.Tuple
	m    Mult
	args []rangeval.V
	ug   bool // ug(G, R, t): group membership is uncertain
}

// boundsAcc folds lower/upper aggregate bounds per Definition 26.
type boundsAcc struct {
	m      aggMonoid
	lo, hi types.Value
}

func newBoundsAcc(m aggMonoid) *boundsAcc {
	n := m.neutral()
	return &boundsAcc{m: m, lo: n, hi: n}
}

func (a *boundsAcc) add(k Mult, v rangeval.V, uncertainGroup bool) error {
	cl, ch, err := a.m.starBounds(k, v)
	if err != nil {
		return err
	}
	if uncertainGroup {
		// lbagg/ubagg: a tuple that may not belong to the group
		// contributes at worst the neutral element.
		n := a.m.neutral()
		cl = types.Min(n, cl)
		ch = types.Max(n, ch)
	}
	if a.lo, err = a.m.plus(a.lo, cl); err != nil {
		return err
	}
	a.hi, err = a.m.plus(a.hi, ch)
	return err
}

// avgBounds derives AVG bounds from sum and count bound triples using
// conservative interval division with the count clamped to at least one
// (the bounds need only cover worlds in which the group is non-empty).
func avgBounds(sum, cnt rangeval.V) rangeval.V {
	cLo := types.Max(types.Int(1), cnt.Lo)
	cHi := types.Max(types.Int(1), cnt.Hi)
	var sg types.Value
	if !types.Less(types.Int(0), cnt.SG) { // count.sg <= 0: group absent in SGW
		sg = types.Float(0)
	} else {
		var err error
		sg, err = types.Div(sum.SG, cnt.SG)
		if err != nil {
			sg = types.Float(0)
		}
	}
	div := func(n, d types.Value) types.Value {
		v, err := types.Div(n, d)
		if err != nil {
			return types.Float(0)
		}
		return v
	}
	cands := []types.Value{div(sum.Lo, cLo), div(sum.Lo, cHi), div(sum.Hi, cLo), div(sum.Hi, cHi)}
	lo, hi := cands[0], cands[0]
	for _, c := range cands[1:] {
		lo = types.Min(lo, c)
		hi = types.Max(hi, c)
	}
	lo = types.Min(lo, sg)
	hi = types.Max(hi, sg)
	return rangeval.New(lo, sg, hi)
}

// AggRelations is the grouping-aggregation kernel on a materialized input,
// implementing the default grouping strategy (Definitions 24-28). With
// Options.AggCompression > 0 the possible-contribution side is compressed
// first (Section 10.5), trading bound tightness for running time. outSchema
// is the operator's inferred output schema (group-by attributes then
// aggregate names).
func AggRelations(ctx context.Context, in *Relation, groupBy []int, specs []ra.AggSpec, outSchema schema.Schema, opt Options) (*Relation, error) {
	plans, err := planAggs(specs)
	if err != nil {
		return nil, err
	}
	return aggregate(ctx, in, groupBy, plans, outSchema, opt)
}

// buildContribs evaluates argument ranges for every tuple, chunked across
// workers (each contribution is independent and lands in its input slot).
// The extra final slot carries the count(*) indicator used by AVG counts.
func buildContribs(ctx context.Context, in *Relation, groupBy []int, plans []aggPlan, workers int) ([]contrib, error) {
	one := rangeval.Certain(types.Int(1))
	out := make([]contrib, len(in.Tuples))
	spans := ChunkSpans(len(in.Tuples), workers, minParTuples)
	err := runSpans(ctx, spans, func(_ int, s Span, p *ctxpoll.Poll) error {
		for i := s.Lo; i < s.Hi; i++ {
			if err := p.Due(); err != nil {
				return err
			}
			tup := in.Tuples[i]
			args := make([]rangeval.V, len(plans)+1)
			for j, p := range plans {
				v, err := p.arg(tup.Vals)
				if err != nil {
					return fmt.Errorf("core: aggregate %s: %w", p.spec.Name, err)
				}
				args[j] = v
			}
			args[len(plans)] = one
			gb := tup.Vals.Project(groupBy)
			out[i] = contrib{
				gb:   gb,
				m:    tup.M,
				args: args,
				ug:   tup.M.Lo == 0 || !gb.IsCertain(),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// outGroup is one output group of the default grouping strategy.
type outGroup struct {
	gbox    rangeval.Tuple
	members []int
}

// buildGroups assigns every contribution to its output group (Definition
// 24: one output per distinct SG group-by value) and folds the group's
// bounding box (Definition 25). Workers build partial group maps over
// contiguous chunks; merging partials in chunk order reproduces the serial
// first-seen group order and ascending member order exactly.
func buildGroups(ctx context.Context, exact []contrib, groupBy []int, workers, sizeHint int) (map[string]*outGroup, []string, error) {
	spans := ChunkSpans(len(exact), workers, minParTuples)
	maps := make([]map[string]*outGroup, len(spans))
	orders := make([][]string, len(spans))
	if err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		var err error
		maps[c], orders[c], err = buildGroupsRange(exact, groupBy, s.Lo, s.Hi, sizeHint, p)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if len(spans) == 0 {
		return map[string]*outGroup{}, nil, nil
	}
	groups, order := maps[0], orders[0]
	for c := 1; c < len(spans); c++ {
		for _, k := range orders[c] {
			part := maps[c][k]
			if g, ok := groups[k]; ok {
				g.gbox = g.gbox.Union(part.gbox)
				g.members = append(g.members, part.members...)
				continue
			}
			groups[k] = part
			order = append(order, k)
		}
	}
	return groups, order, nil
}

// buildGroupsRange is the serial group assignment over contribs [lo, hi).
// sizeHint (the planner's estimated group count, 0 = none) pre-sizes the
// group map; it is capped against the input size so a wild over-estimate
// cannot allocate more buckets than distinct groups are possible.
func buildGroupsRange(exact []contrib, groupBy []int, lo, hi, sizeHint int, p *ctxpoll.Poll) (map[string]*outGroup, []string, error) {
	if sizeHint < 0 {
		sizeHint = 0
	}
	if sizeHint > hi-lo {
		sizeHint = hi - lo
	}
	groups := make(map[string]*outGroup, sizeHint)
	var order []string
	for i := lo; i < hi; i++ {
		if err := p.Due(); err != nil {
			return nil, nil, err
		}
		k := exact[i].gb.SGKey()
		g, ok := groups[k]
		if !ok {
			sgCert := make(rangeval.Tuple, len(groupBy))
			for j := range groupBy {
				sgCert[j] = rangeval.Certain(exact[i].gb[j].SG)
			}
			g = &outGroup{gbox: sgCert}
			groups[k] = g
			order = append(order, k)
		}
		g.gbox = g.gbox.Union(exact[i].gb) // Definition 25
		g.members = append(g.members, i)
	}
	return groups, order, nil
}

// compressContribs merges contributions down to roughly n entries
// (Section 10.5, the aggregation analog of Cpr): contributions are ordered
// by the lower endpoint of the first group-by attribute and merged
// equi-depth. Merged contributions take the bounding box of group-by and
// argument ranges, sum their upper multiplicities, zero their lower/SG
// multiplicities and become uncertain members (exactly like Cpr output).
func compressContribs(cs []contrib, n int) []contrib {
	if n <= 0 || len(cs) <= n {
		return cs
	}
	sorted := append([]contrib(nil), cs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if len(sorted[i].gb) == 0 {
			return false
		}
		return types.Less(sorted[i].gb[0].Lo, sorted[j].gb[0].Lo)
	})
	out := make([]contrib, 0, n)
	per := (len(sorted) + n - 1) / n
	for start := 0; start < len(sorted); start += per {
		end := start + per
		if end > len(sorted) {
			end = len(sorted)
		}
		merged := contrib{
			gb:   sorted[start].gb.Clone(),
			m:    Mult{0, 0, sorted[start].m.Hi},
			args: append([]rangeval.V(nil), sorted[start].args...),
			ug:   true,
		}
		for _, c := range sorted[start+1 : end] {
			merged.gb = merged.gb.Union(c.gb)
			merged.m.Hi += c.m.Hi
			for j := range merged.args {
				merged.args[j] = merged.args[j].Union(c.args[j])
			}
		}
		out = append(out, merged)
	}
	return out
}

// aggregate executes grouping (or global) aggregation.
func aggregate(ctx context.Context, in *Relation, groupBy []int, plans []aggPlan, outSchema schema.Schema, opt Options) (*Relation, error) {
	workers := opt.workerCount()
	exact, err := buildContribs(ctx, in.Dense(), groupBy, plans, workers)
	if err != nil {
		return nil, err
	}

	// Default grouping strategy (Definition 24): one output per distinct
	// SG group-by value; α assigns every tuple by its SG values. Without
	// group-by there is a single output group.
	groups, order, err := buildGroups(ctx, exact, groupBy, workers, opt.SizeHint)
	if err != nil {
		return nil, err
	}

	out := New(outSchema)
	noGroup := len(groupBy) == 0
	if noGroup && len(order) == 0 {
		// Empty input: one output row with neutral bounds (Definition 27).
		row := make(rangeval.Tuple, len(plans))
		for j, p := range plans {
			n := p.monoid.neutral()
			if p.isAvg {
				row[j] = rangeval.Certain(types.Float(0))
			} else {
				row[j] = rangeval.Certain(n)
			}
		}
		out.Add(Tuple{Vals: row, M: One})
		return out, nil
	}

	// Possibly-compressed contribution side for the overlap join.
	joinSide := exact
	if opt.AggCompression > 0 {
		joinSide = compressContribs(exact, opt.AggCompression)
	}
	// Index attribute-certain contributions by their point group-by key.
	pointIdx := map[string][]int{}
	var boxIdx []int
	for ci := range joinSide {
		if joinSide[ci].gb.IsCertain() {
			k := joinSide[ci].gb.SGKey()
			pointIdx[k] = append(pointIdx[k], ci)
		} else {
			boxIdx = append(boxIdx, ci)
		}
	}

	// Every output group folds an independent slice of read-only state
	// (contributions, indexes), so groups are computed in parallel chunks;
	// appending rows in group order keeps the output identical to the
	// serial loop.
	computeGroup := func(g *outGroup, p *ctxpoll.Poll) (Tuple, error) {
		// Lower/upper aggregate bounds from ð(g) (Definition 26).
		accs := make([]*boundsAcc, len(plans))
		cntAccs := make([]*boundsAcc, len(plans))
		for j, p := range plans {
			accs[j] = newBoundsAcc(p.monoid)
			if p.isAvg {
				cntAccs[j] = newBoundsAcc(monoidSum)
			}
		}
		// A contribution counts as a certain group member only when its
		// own group membership is certain AND the output's group box is
		// exactly its (certain) group-by point — the condition θ_c of the
		// rewrite (Section 10.2). A widened group box means the output may
		// represent other groups, for which this tuple's contribution is
		// not guaranteed.
		fold := func(c contrib, certainMember bool) error {
			if err := p.Due(); err != nil {
				return err
			}
			ug := c.ug || !certainMember
			for j := range plans {
				if err := accs[j].add(c.m, c.args[j], ug); err != nil {
					return err
				}
				if cntAccs[j] != nil {
					if err := cntAccs[j].add(c.m, c.args[len(plans)], ug); err != nil {
						return err
					}
				}
			}
			return nil
		}
		if g.gbox.IsCertain() {
			// Point box: certain contributions at exactly this point, plus
			// overlapping box contributions.
			for _, ci := range pointIdx[g.gbox.SGKey()] {
				if err := fold(joinSide[ci], true); err != nil {
					return Tuple{}, err
				}
			}
			for _, ci := range boxIdx {
				if joinSide[ci].gb.Overlaps(g.gbox) {
					if err := fold(joinSide[ci], false); err != nil {
						return Tuple{}, err
					}
				}
			}
		} else {
			for _, cis := range pointIdx {
				if joinSide[cis[0]].gb.Overlaps(g.gbox) {
					for _, ci := range cis {
						if err := fold(joinSide[ci], false); err != nil {
							return Tuple{}, err
						}
					}
				}
			}
			for _, ci := range boxIdx {
				if joinSide[ci].gb.Overlaps(g.gbox) {
					if err := fold(joinSide[ci], false); err != nil {
						return Tuple{}, err
					}
				}
			}
		}

		// SG results: exactly the α-members, standard K-relational
		// semantics over the SGW (mirrors the piggy-backed computation of
		// the optimized rewrite).
		sgVals := make([]types.Value, len(plans))
		sgCnts := make([]types.Value, len(plans))
		for j, p := range plans {
			sgVals[j] = p.monoid.neutral()
			sgCnts[j] = types.Int(0)
		}
		for _, i := range g.members {
			if err := p.Due(); err != nil {
				return Tuple{}, err
			}
			c := exact[i]
			if c.m.SG == 0 {
				continue
			}
			for j, p := range plans {
				x, err := p.monoid.star(c.m.SG, c.args[j].SG)
				if err != nil {
					return Tuple{}, err
				}
				if sgVals[j], err = p.monoid.plus(sgVals[j], x); err != nil {
					return Tuple{}, err
				}
				if p.isAvg {
					cx, err := types.Mul(types.Int(c.m.SG), c.args[len(plans)].SG)
					if err != nil {
						return Tuple{}, err
					}
					if sgCnts[j], err = types.Add(sgCnts[j], cx); err != nil {
						return Tuple{}, err
					}
				}
			}
		}

		// Row annotation (Definition 27/28), always from exact members.
		var m Mult
		if noGroup {
			m = One
		} else {
			var loSum, sgSum, hiSum int64
			for _, i := range g.members {
				c := exact[i]
				if !c.ug {
					loSum += c.m.Lo
				}
				sgSum += c.m.SG
				hiSum += c.m.Hi
			}
			m = Mult{Lo: delta(loSum), SG: delta(sgSum), Hi: hiSum}
		}

		row := make(rangeval.Tuple, 0, len(groupBy)+len(plans))
		row = append(row, g.gbox...)
		for j, p := range plans {
			sum := rangeval.New(accs[j].lo, sgVals[j], accs[j].hi)
			if p.isAvg {
				cnt := rangeval.New(cntAccs[j].lo, sgCnts[j], cntAccs[j].hi)
				row = append(row, avgBounds(sum, cnt))
			} else {
				row = append(row, sum)
			}
		}
		return Tuple{Vals: row, M: m}, nil
	}

	rows := make([]Tuple, len(order))
	spans := ChunkSpans(len(order), workers, minParGroups)
	err = runSpans(ctx, spans, func(_ int, s Span, p *ctxpoll.Poll) error {
		for gi := s.Lo; gi < s.Hi; gi++ {
			row, err := computeGroup(groups[order[gi]], p)
			if err != nil {
				return err
			}
			rows[gi] = row
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
