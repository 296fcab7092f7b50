package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

// plus is +_M on domain values: SG arithmetic, where an int64 overflow is
// an error.
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

// plusBound is +_M on the bounds of side dir (-1 lower, +1 upper): a sum
// that overflows saturates (types.Bound).
func (m aggMonoid) plusBound(a, b types.Value, dir int) (types.Value, error) {
	x, err := m.plus(a, b)
	return types.Bound(x, err, dir)
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

// starBound is k ∗ v read as a lower and an upper bound: one value,
// unless the product overflows and each side saturates (types.Bound).
func (m aggMonoid) starBound(k int64, v types.Value) (lo, hi types.Value, err error) {
	x, xerr := m.star(k, v)
	if lo, err = types.Bound(x, xerr, -1); err != nil {
		return types.Null(), types.Null(), err
	}
	hi, _ = types.Bound(x, xerr, 1)
	return lo, hi, nil
}

// starBounds computes the lower/upper components of ⊛_M (Definition 23):
// min/max over the four combinations of multiplicity bounds and value
// bounds.
func (m aggMonoid) starBounds(k *Mult, v *rangeval.V) (lo, hi types.Value, err error) {
	if k.Lo == k.Hi && types.Equal(v.Lo, v.Hi) {
		// Certain multiplicity and value: all four combinations are the
		// same star call, so one evaluation gives lo and hi (bit-identical
		// to the loop below, which would fold four equal results).
		return m.starBound(k.Lo, v.Lo)
	}
	first := true
	for _, kk := range [2]int64{k.Lo, k.Hi} {
		for _, vv := range [2]types.Value{v.Lo, v.Hi} {
			l, h, err := m.starBound(kk, vv)
			if err != nil {
				return types.Null(), types.Null(), err
			}
			if first {
				lo, hi = l, h
				first = false
				continue
			}
			lo = types.Min(lo, l)
			hi = types.Max(hi, h)
		}
	}
	return lo, hi, nil
}

// clampBound is lbagg/ubagg's clamp of a bound of side dir (Definition
// 26): a tuple that may not belong to a group contributes at worst the
// neutral element.
func (m aggMonoid) clampBound(x types.Value, dir int) types.Value {
	if dir < 0 {
		return types.Min(m.neutral(), x)
	}
	return types.Max(m.neutral(), x)
}

// starFloat is starBounds for float argument bounds vlo and vhi, on
// float64: SUM's product is float64(k)*v, as types.Mul gives it, MIN and
// MAX keep v, and the four products fold with types.Min and types.Max's
// rule (cmp.Compare; on a tie the earlier one). ok is false when a bound
// would be MIN's or MAX's neutral sentinel, for a multiplicity that may
// be 0.
func (m aggMonoid) starFloat(k *Mult, vlo, vhi float64) (lo, hi float64, ok bool) {
	if m != monoidSum && (k.Lo == 0 || k.Hi == 0) {
		return 0, 0, false
	}
	star := func(kk int64, v float64) float64 {
		if m == monoidSum {
			return float64(kk) * v
		}
		return v
	}
	if k.Lo == k.Hi && cmp.Compare(vlo, vhi) == 0 {
		x := star(k.Lo, vlo)
		return x, x, true
	}
	lo, hi = bounds4([4]float64{star(k.Lo, vlo), star(k.Lo, vhi), star(k.Hi, vlo), star(k.Hi, vhi)})
	return lo, hi, true
}

// starInt is starFloat for int argument bounds. SUM's products are
// types.Mul's; ok is also false when one leaves int64, whose bounds
// saturate to values no int64 column holds (types.Bound).
func (m aggMonoid) starInt(k *Mult, vlo, vhi int64) (lo, hi int64, ok bool) {
	if m != monoidSum && (k.Lo == 0 || k.Hi == 0) {
		return 0, 0, false
	}
	star := func(kk, v int64) (int64, bool) {
		if m != monoidSum {
			return v, true
		}
		x, err := types.Mul(types.Int(kk), types.Int(v))
		return x.AsInt(), err == nil
	}
	if k.Lo == k.Hi && vlo == vhi {
		x, ok := star(k.Lo, vlo)
		return x, x, ok
	}
	var xs [4]int64
	for c, kv := range [4][2]int64{{k.Lo, vlo}, {k.Lo, vhi}, {k.Hi, vlo}, {k.Hi, vhi}} {
		if xs[c], ok = star(kv[0], kv[1]); !ok {
			return 0, 0, false
		}
	}
	lo, hi = bounds4(xs)
	return lo, hi, true
}

// bounds4 is starBounds' fold of its four products: the least and the
// greatest under cmp.Compare, the earlier one on a tie.
func bounds4[T int64 | float64](xs [4]T) (lo, hi T) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if cmp.Compare(lo, x) > 0 {
			lo = x
		}
		if cmp.Compare(hi, x) < 0 {
			hi = x
		}
	}
	return lo, hi
}

// argKind is how a slot evaluates its argument for one tuple.
type argKind uint8

const (
	argValue   argKind = iota // the argument under range semantics
	argNotNull                // count(e): the not-null indicator of e
	argOne                    // count(*) and AVG's count: the constant 1
)

// slot is one accumulator of the fold, shared by every aggregate that
// folds the same monoid over the same argument: sum(x) and avg(x) read
// x's slot, and count(*) and every AVG's count read the constant-1 slot.
// Arguments are matched with expr.Equal; String() is not a faithful key.
type slot struct {
	monoid aggMonoid
	kind   argKind
	arg    expr.Expr // the aggregate's argument; nil for argOne
	eval   expr.Expr // what is evaluated per tuple
	name   string    // the first aggregate that reads the slot, for errors
}

// aggPlan maps one output aggregate onto the slots it reads.
type aggPlan struct {
	slot int // the aggregate's slot; for AVG, that of its sum
	cnt  int // AVG: the slot of its count; -1 otherwise
}

func planAggs(specs []ra.AggSpec) ([]aggPlan, []slot, error) {
	var slots []slot
	slotOf := func(m aggMonoid, k argKind, arg expr.Expr, name string) int {
		for i, s := range slots {
			if s.monoid == m && s.kind == k && expr.Equal(s.arg, arg) {
				return i
			}
		}
		s := slot{monoid: m, kind: k, arg: arg, eval: arg, name: name}
		switch k {
		case argNotNull:
			s.eval = expr.If{Cond: expr.IsNull{E: arg}, Then: expr.CInt(0), Else: expr.CInt(1)}
		case argOne:
			s.eval = expr.CInt(1)
		}
		slots = append(slots, s)
		return len(slots) - 1
	}
	plans := make([]aggPlan, 0, len(specs))
	for _, s := range specs {
		if s.Distinct {
			return nil, nil, fmt.Errorf("core: DISTINCT aggregates are not supported over AU-DBs (aggregate %s)", s.Name)
		}
		p := aggPlan{cnt: -1}
		switch s.Fn {
		case ra.AggSum:
			p.slot = slotOf(monoidSum, argValue, s.Arg, s.Name)
		case ra.AggMin:
			p.slot = slotOf(monoidMin, argValue, s.Arg, s.Name)
		case ra.AggMax:
			p.slot = slotOf(monoidMax, argValue, s.Arg, s.Name)
		case ra.AggCount:
			// The indicator is [0/0/0] or [1/1/1], or uncertain for a
			// possibly-null argument; count(*) always counts 1.
			if s.Arg == nil {
				p.slot = slotOf(monoidSum, argOne, nil, s.Name)
			} else {
				p.slot = slotOf(monoidSum, argNotNull, s.Arg, s.Name)
			}
		case ra.AggAvg:
			p.slot = slotOf(monoidSum, argValue, s.Arg, s.Name)
			p.cnt = slotOf(monoidSum, argOne, nil, s.Name)
		default:
			return nil, nil, fmt.Errorf("core: unknown aggregate %v", s.Fn)
		}
		plans = append(plans, p)
	}
	return plans, slots, nil
}

// contrib is one (possibly merged) contribution to the aggregation overlap
// join under compression: group-by ranges, tuple annotation and one
// argument range per slot, which merging widens (compressContribs). gb and
// args are views into arenas shared by all contributions.
type contrib struct {
	gb   rangeval.Tuple
	m    Mult
	args []rangeval.V
	ug   bool // ug(G, R, t): group membership is uncertain
}

// avgBounds derives AVG bounds from sum and count bound triples using
// conservative interval division with the count clamped to at least one
// (the bounds need only cover worlds in which the group is non-empty). A
// quotient of two saturated bounds, inf/inf, may be anything.
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
	div := func(n, d types.Value) (lo, hi types.Value) {
		v, err := types.Div(n, d)
		if err != nil {
			return types.NegInf(), types.PosInf()
		}
		return v, v
	}
	lo, hi := div(sum.Lo, cLo)
	for _, q := range [3][2]types.Value{{sum.Lo, cHi}, {sum.Hi, cLo}, {sum.Hi, cHi}} {
		l, h := div(q[0], q[1])
		lo = types.Min(lo, l)
		hi = types.Max(hi, h)
	}
	lo = types.Min(lo, sg)
	hi = types.Max(hi, sg)
	return rangeval.New(lo, sg, hi)
}

// AggRelations is the grouping-aggregation kernel on a materialized input,
// implementing the default grouping strategy (Definitions 24-28). It reads
// the input in its own layout: a sparse relation's columns are not
// densified.
// With Options.AggCompression > 0 the possible-contribution side is
// compressed first (Section 10.5), trading bound tightness for running
// time. outSchema is the operator's inferred output schema (group-by
// attributes then aggregate names).
func AggRelations(ctx context.Context, in *Relation, groupBy []int, specs []ra.AggSpec, outSchema schema.Schema, opt Options) (*Relation, error) {
	return AggInputs(ctx, aggInputOf(in), groupBy, specs, outSchema, opt)
}

// AggInputs is AggRelations over an input kept in the layout the pipeline
// delivered it in (see AggInput).
func AggInputs(ctx context.Context, in *AggInput, groupBy []int, specs []ra.AggSpec, outSchema schema.Schema, opt Options) (*Relation, error) {
	plans, slots, err := planAggs(specs)
	if err != nil {
		return nil, err
	}
	return aggregate(ctx, in, groupBy, plans, slots, outSchema, opt)
}

// aggGroups is what pass 1 learns from the group-by values alone: the
// output groups of the default grouping strategy (Definition 24: one per
// distinct SG group-by value, in first-seen order) with their bounding
// boxes (Definition 25), and each row's group and rank.
type aggGroups struct {
	at   map[string]int32 // SG key → group
	gbox []rangeval.Tuple
	// Per group: the group-by of its first point row (a row whose
	// group-by is certain) and its number of point rows.
	rep    []rangeval.Tuple
	npoint []int
	// keys lists the groups that have point rows in the first-seen order
	// of those points; nbox counts the other rows.
	keys []int32
	nbox int
	// Per row: its α-group, and its rank among its group's point rows
	// (>= 0) or -(1 + its rank among the box rows).
	grp, rank []int32
}

// groupRows is pass 1. Each row's SG key is built once, into a reused
// buffer; only a new group allocates it.
func groupRows(in *AggInput, groupBy []int, sizeHint int, p *ctxpoll.Poll) (*aggGroups, error) {
	sizeHint = min(max(sizeHint, 0), in.n)
	gs := &aggGroups{
		at:   make(map[string]int32, sizeHint),
		grp:  make([]int32, 0, in.n),
		rank: make([]int32, 0, in.n),
	}
	var key []byte
	var scratch rangeval.V // a flat column's value, as val returns it
	for pi := range in.parts {
		pt := &in.parts[pi]
		for i := 0; i < pt.n; i++ {
			if err := p.Due(); err != nil {
				return nil, err
			}
			key = key[:0]
			point := true
			for _, c := range groupBy {
				if pt.columnar && pt.cols[c].IsFlat() {
					key = pt.cols[c].Flat[i].AppendKey(key)
					continue
				}
				v := pt.val(c, i, &scratch)
				key = v.SG.AppendKey(key)
				point = point && v.IsCertain()
			}
			g, ok := gs.at[string(key)]
			if !ok {
				g = int32(len(gs.gbox))
				gs.at[string(key)] = g
				box := make(rangeval.Tuple, len(groupBy))
				for j, c := range groupBy {
					box[j] = rangeval.Certain(pt.val(c, i, &scratch).SG)
				}
				gs.gbox = append(gs.gbox, box)
				gs.rep = append(gs.rep, nil)
				gs.npoint = append(gs.npoint, 0)
			}
			gs.grp = append(gs.grp, g)
			if point {
				// A point equals its group's SG under the total order, so
				// it lies in the box, and Union, which keeps the box's
				// bound on a tie, would leave every bit as it is.
				if gs.npoint[g] == 0 {
					gs.keys = append(gs.keys, g)
					gs.rep[g] = make(rangeval.Tuple, len(groupBy))
					gbOf(pt, i, groupBy, gs.rep[g])
				}
				gs.rank = append(gs.rank, int32(gs.npoint[g]))
				gs.npoint[g]++
				continue
			}
			box := gs.gbox[g]
			for j, c := range groupBy {
				box[j].Widen(pt.val(c, i, &scratch)) // Definition 25
			}
			gs.nbox++
			gs.rank = append(gs.rank, -int32(gs.nbox))
		}
	}
	return gs, nil
}

// gbOf writes row i's group-by values to dst, reading each stored triple
// in place.
func gbOf(pt *aggPart, i int, groupBy []int, dst rangeval.Tuple) {
	for j, c := range groupBy {
		if v := pt.val(c, i, &dst[j]); v != &dst[j] {
			dst[j] = *v
		}
	}
}

// aggKernel is the state of one aggregation after pass 1.
//
// Pass 2 evaluates the arguments a chunk of rows at a time, one lane of
// points with exceptions per slot (expr.Lane), and folds each group's
// rows of the chunk in input order: a row's SG contribution and
// multiplicity go to its α-group, and a point row whose group's box is
// certain adds its ⊛ bounds (Definition 26) to that group at once. When
// that group's rows are not kept either and every one of them in the
// chunk is a point row whose multiplicity is certainly positive, they
// fold slot by slot through typed loops (foldChunk, foldTyped). Only
// rows that may reach a group whose box is uncertain (the set U) are
// kept: box rows, and the point rows of keys that overlap a
// group in U. A kept row's ⊛ bounds are computed once, into one bound
// column per slot (boundCols) at its index in the walk, and a box row
// also keeps its group-by. The walk then folds those columns in the order
// every group folded before rows were folded directly — point keys in
// first-seen order, then boxes in input order — so each group still
// receives its point rows in input order followed by the boxes that
// overlap it, every float + runs on the same operands in the same order,
// and every answer is unchanged.
//
// With compression every row is kept whole, with its argument ranges, and
// the walk runs over the compressed side (Section 10.5).
type aggKernel struct {
	in      *AggInput
	groupBy []int
	slots   []slot
	gs      *aggGroups
	// compression is Options.AggCompression: > 0 keeps every row.
	compression int
	certBox     []bool // per group: its box is certain
	unc         []int  // U, ascending
	// direct is, per group, whether its point rows fold into it at once
	// and no further: its box is certain and none of its rows is kept.
	// anyDirect is whether any group does.
	direct    []bool
	anyDirect bool
	// local is, per group, its index among the groups of the chunk a span
	// is folding (foldChunk), -1 outside one. Spans own disjoint groups.
	local []int32

	// Per point key: the walk position of its first point row, and the
	// index of its first kept row (-1 when none is kept). npoints is the
	// number of point rows, kept the number of kept point rows.
	walkAt, keptAt []int
	npoints, kept  int

	// The kept rows. Without compression: their ⊛ bounds by walk index
	// (point rows first, then boxes), and each box row's group-by by its
	// rank among the boxes. With compression: every row, in input order.
	bounds *boundCols
	boxGB  rangeval.Tuple
	keep   []contrib

	// Per group: lo, hi per slot; the SG result per slot; the row
	// annotation sums; the group's first SG error.
	acc   []types.Value
	sg    []types.Value
	mults []multSum
	sgErr []error
}

// multSum accumulates a group's row annotation (Definitions 27 and 28).
// Every sum saturates at MaxInt64 (addHi): rows reads only δ of lo and
// sg, which a saturated sum keeps, and hi bounds from above.
type multSum struct{ lo, sg, hi int64 }

// add folds in one row's annotation m; its Lo only when the row certainly
// belongs to the group.
func (ms *multSum) add(m *Mult, certain bool) {
	if certain {
		ms.lo = addHi(ms.lo, m.Lo)
	}
	ms.sg = addHi(ms.sg, m.SG)
	ms.hi = addHi(ms.hi, m.Hi)
}

// foldErr is a failed step and its position: the row of an argument
// error, or the walk position of a fold error.
type foldErr struct {
	at  int
	err error
}

// earlier reports whether e precedes o; a missing error precedes nothing.
func (e foldErr) earlier(o foldErr) bool {
	return e.err != nil && (o.err == nil || e.at < o.at)
}

// firstErr returns the earliest error of lists; at one position, the
// first listed wins.
func firstErr(lists ...[]foldErr) foldErr {
	var first foldErr
	for _, l := range lists {
		for _, e := range l {
			if e.earlier(first) {
				first = e
			}
		}
	}
	return first
}

// aggregate executes grouping (or global) aggregation in two passes over
// in: pass 1 finds the groups from the group-by values, pass 2 evaluates
// the arguments a chunk of rows at a time and folds every row into its
// group (see aggKernel). It reports the error the row-at-a-time kernel
// reports: argument errors first, in row-major order; then fold errors,
// by position in the walk; then SG errors, by group.
func aggregate(ctx context.Context, in *AggInput, groupBy []int, plans []aggPlan, slots []slot, outSchema schema.Schema, opt Options) (*Relation, error) {
	workers := opt.workerCount()
	gs, err := groupRows(in, groupBy, opt.SizeHint, ctxpoll.New(ctx))
	if err != nil {
		return nil, err
	}
	out := New(outSchema)
	noGroup := len(groupBy) == 0
	if noGroup && len(gs.gbox) == 0 {
		// Empty input: one output row with neutral bounds (Definition 27).
		row := make(rangeval.Tuple, len(plans))
		for j, p := range plans {
			if p.cnt >= 0 {
				row[j] = rangeval.Certain(types.Float(0))
			} else {
				row[j] = rangeval.Certain(slots[p.slot].monoid.neutral())
			}
		}
		out.Add(Tuple{Vals: row, M: One})
		return out, nil
	}
	k, err := newAggKernel(in, groupBy, slots, gs, opt.AggCompression, ctxpoll.New(ctx))
	if err != nil {
		return nil, err
	}

	// The folds are split by groups: each group is folded by one span, in
	// the one order, so no result depends on the chunking.
	spans := ChunkSpans(len(gs.gbox), workers, minParGroups)
	argErr, direct, err := k.foldRows(ctx, workers, spans)
	if err != nil {
		return nil, err
	}
	if argErr.err != nil {
		return nil, argErr.err
	}

	ws := k.walkOrder()
	walked := make([]foldErr, len(spans))
	if err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		return k.walk(s, ws, p, &walked[c])
	}); err != nil {
		return nil, err
	}
	// At one position, a point row's direct fold (its certain target)
	// comes before its walk (the uncertain ones).
	if first := firstErr([]foldErr{direct}, walked); first.err != nil {
		return nil, first.err
	}
	for _, err := range k.sgErr {
		if err != nil {
			return nil, err
		}
	}
	return k.rows(out, plans, noGroup, ctxpoll.New(ctx))
}

// newAggKernel sizes pass 2's state from pass 1: U, each point key's walk
// position and whether it is kept, and the storage for the kept rows.
func newAggKernel(in *AggInput, groupBy []int, slots []slot, gs *aggGroups, compression int, p *ctxpoll.Poll) (*aggKernel, error) {
	ng, ns := len(gs.gbox), len(slots)
	k := &aggKernel{
		in: in, groupBy: groupBy, slots: slots, gs: gs, compression: compression,
		certBox: make([]bool, ng),
		direct:  make([]bool, ng),
		local:   make([]int32, ng),
		walkAt:  make([]int, ng),
		keptAt:  make([]int, ng),
		acc:     make([]types.Value, 2*ns*ng),
		sg:      make([]types.Value, ns*ng),
		mults:   make([]multSum, ng),
		sgErr:   make([]error, ng),
	}
	for g, box := range gs.gbox {
		if err := p.Due(); err != nil {
			return nil, err
		}
		k.certBox[g] = box.IsCertain()
		k.local[g] = -1
		if !k.certBox[g] {
			k.unc = append(k.unc, g)
		}
		for j := range slots {
			n := slots[j].monoid.neutral()
			k.acc[2*ns*g+2*j], k.acc[2*ns*g+2*j+1] = n, n
			k.sg[ns*g+j] = n
		}
	}
	if compression > 0 {
		n, na := in.n, len(groupBy)
		args, gbs := make([]rangeval.V, n*ns), make(rangeval.Tuple, n*na)
		k.keep = make([]contrib, n)
		for r := range k.keep {
			k.keep[r].args = args[r*ns : (r+1)*ns : (r+1)*ns]
			k.keep[r].gb = gbs[r*na : (r+1)*na : (r+1)*na]
		}
		return k, nil
	}
	for _, g := range gs.keys {
		k.walkAt[g] = k.npoints
		k.npoints += gs.npoint[g]
		k.keptAt[g] = -1
		for _, u := range k.unc {
			if err := p.Due(); err != nil {
				return nil, err
			}
			if gs.rep[g].Overlaps(gs.gbox[u]) {
				k.keptAt[g] = k.kept
				k.kept += gs.npoint[g]
				break
			}
		}
		k.direct[g] = k.certBox[g] && k.keptAt[g] < 0
		k.anyDirect = k.anyDirect || k.direct[g]
	}
	k.bounds = newBoundCols(ns, k.kept+gs.nbox)
	k.boxGB = make(rangeval.Tuple, gs.nbox*len(groupBy))
	return k, nil
}

// argChunk is rows [lo, hi) of part pt, at most expr.RangeChunk of them;
// base is the input row of the part's first row.
type argChunk struct {
	pt           *aggPart
	lo, hi, base int
}

// spanFold is one span's scratch for folding rows: the chunk's rows by
// group and their typed ⊛ (foldChunk), and foldRow's argument triples and
// addDirect's bounds before they are stored.
type spanFold struct {
	direct directFold
	args   []rangeval.V
	star   []types.Value
}

// foldRows is pass 2. It visits the input a block of chunks at a time:
// a block's arguments are evaluated with its chunks split across workers,
// into one lane per chunk and slot (see argPrograms), and the block is
// folded with the groups split by spans, so every group still receives
// its rows in input order (foldChunk: a group's rows of a chunk fold
// slot by slot through typed loops when all of them are point rows of a
// group that folds directly, with multiplicities that are certainly
// positive, and through foldRow otherwise). Then
// the block's kept rows are stored (keepBlock). With more than one worker
// the next block is evaluated into a second set of lanes while the
// current one folds. It returns the first argument error in row-major
// order, or else the direct fold's earliest error by walk position.
func (k *aggKernel) foldRows(ctx context.Context, workers int, spans []Span) (argErr, direct foldErr, err error) {
	nc := 0
	for _, pt := range k.in.parts {
		nc += (pt.n + expr.RangeChunk - 1) / expr.RangeChunk
	}
	chunks := make([]argChunk, 0, nc)
	base := 0
	for pi := range k.in.parts {
		pt := &k.in.parts[pi]
		for lo := 0; lo < pt.n; lo += expr.RangeChunk {
			chunks = append(chunks, argChunk{pt: pt, lo: lo, hi: min(lo+expr.RangeChunk, pt.n), base: base})
		}
		base += pt.n
	}
	if k.in.n < minParTuples {
		workers = 1
	}
	ns := len(k.slots)
	per := min(workers, len(chunks)) // chunks per block
	if per == 0 {
		return foldErr{}, foldErr{}, nil
	}
	nb := (len(chunks) + per - 1) / per
	block := func(b int) []argChunk { return chunks[b*per : min((b+1)*per, len(chunks))] }
	// With workers, two sets of lanes: block b+1 is evaluated into one
	// while block b folds from the other. Each lane is sized by the first
	// chunk it holds and reused after.
	nbuf := min(workers, 2)
	lanes := make([][]expr.Lane, nbuf)
	argErrs := make([][]foldErr, nbuf)
	for x := range lanes {
		lanes[x] = make([]expr.Lane, per*ns)
		argErrs[x] = make([]foldErr, per)
	}
	evals := make([]*argPrograms, per)
	for c := range evals {
		evals[c] = newArgPrograms(k.slots)
	}
	// The span bodies and span lists are built once per call; each block
	// only points the bodies at its chunks and lanes, so what a block
	// allocates is runSpans' polls.
	evalSpans := ChunkSpans(per, workers, 1)
	lastSpans := ChunkSpans(len(block(nb-1)), workers, 1)
	var (
		evalBlk  []argChunk
		evalOut  []expr.Lane
		evalErrs []foldErr
	)
	evalBody := func(c int, s Span, p *ctxpoll.Poll) error {
		ev := evals[c]
		for ci := s.Lo; ci < s.Hi; ci++ {
			if err := p.Due(); err != nil {
				return err
			}
			ch := evalBlk[ci]
			if bad, err := ev.eval(ch.pt, ch.lo, ch.hi, evalOut[ci*ns:(ci+1)*ns]); err != nil {
				evalErrs[c] = foldErr{at: ch.base + ch.lo + bad, err: err}
				return nil
			}
		}
		return nil
	}
	evalBlock := func(b int) error {
		evalBlk, evalOut, evalErrs = block(b), lanes[b%nbuf], argErrs[b%nbuf]
		if b == nb-1 {
			return runSpans(ctx, lastSpans, evalBody)
		}
		return runSpans(ctx, evalSpans, evalBody)
	}
	folds := make([]spanFold, len(spans))
	for c := range folds {
		folds[c] = spanFold{direct: newDirectFold(ns), args: make([]rangeval.V, ns), star: make([]types.Value, 2*ns)}
	}
	directs := make([]foldErr, len(spans))
	var (
		foldBlk   []argChunk
		foldLanes []expr.Lane
	)
	foldBody := func(c int, s Span, p *ctxpoll.Poll) error {
		for ci, ch := range foldBlk {
			if err := k.foldChunk(s, ch, foldLanes[ci*ns:(ci+1)*ns], &folds[c], p, &directs[c]); err != nil {
				return err
			}
		}
		return nil
	}

	var ahead chan error // block b+1's evaluation, running while block b folds
	for b := range nb {
		var err error
		if ahead != nil {
			err = <-ahead
		} else {
			err = evalBlock(b)
		}
		if err != nil {
			return foldErr{}, foldErr{}, err
		}
		x := b % nbuf
		if first := firstErr(argErrs[x]); first.err != nil {
			return first, foldErr{}, nil
		}
		ahead = nil
		if workers > 1 && b+1 < nb {
			ahead = make(chan error, 1)
			go func(done chan<- error) { done <- evalBlock(b + 1) }(ahead)
		}
		foldBlk, foldLanes = block(b), lanes[x]
		if err := runSpans(ctx, spans, foldBody); err != nil {
			if ahead != nil {
				<-ahead
			}
			return foldErr{}, foldErr{}, err
		}
		if k.compression > 0 || k.kept+k.gs.nbox > 0 {
			k.keepBlock(foldBlk, foldLanes)
		}
	}
	return foldErr{}, firstErr(directs), nil
}

// foldRow folds row r, of multiplicity m and with arguments at offset o
// of lanes, into its α-group: its SG results and annotation, and, for a
// point row of a group whose box is certain, its ⊛ bounds (addDirect).
func (k *aggKernel) foldRow(r int, m *Mult, lanes []expr.Lane, o int, sf *spanFold, direct *foldErr) {
	g, rank := int(k.gs.grp[r]), int(k.gs.rank[r])
	point := rank >= 0

	// SG results: exactly the α-members, standard K-relational semantics
	// over the SGW (mirrors the piggy-backed computation of the optimized
	// rewrite).
	if m.SG != 0 && k.sgErr[g] == nil {
		ns := len(k.slots)
		sg := k.sg[ns*g : ns*(g+1)]
		for j := range k.slots {
			mo := k.slots[j].monoid
			x, err := mo.star(m.SG, lanes[j].SG[o])
			if err == nil {
				sg[j], err = mo.plus(sg[j], x)
			}
			if err != nil {
				k.sgErr[g] = err
				break
			}
		}
	}
	// Row annotation (Definitions 27 and 28).
	k.mults[g].add(m, point)

	if k.compression == 0 && point && k.certBox[g] {
		for j := range lanes {
			sf.args[j] = lanes[j].At(o)
		}
		if err := k.addDirect(g, m, sf.args, sf.star); err != nil {
			if e := (foldErr{at: k.walkAt[g] + rank, err: err}); e.earlier(*direct) {
				*direct = e
			}
		}
	}
}

// addDirect folds the ⊛ bounds of a point row, of multiplicity m and
// arguments args, into its group g, whose box is certain: its one certain
// target, to which a row that may be absent (m.Lo == 0) contributes at
// worst the neutral element. As in the walk, every slot's ⊛ is computed,
// into b, before any is folded.
func (k *aggKernel) addDirect(g int, m *Mult, args []rangeval.V, b []types.Value) error {
	for j := range k.slots {
		lo, hi, err := k.slots[j].monoid.starBounds(m, &args[j])
		if err != nil {
			return err
		}
		b[2*j], b[2*j+1] = lo, hi
	}
	ns := len(k.slots)
	acc := k.acc[2*ns*g : 2*ns*(g+1)]
	for j := range k.slots {
		mo := k.slots[j].monoid
		lo, hi := b[2*j], b[2*j+1]
		if m.Lo == 0 {
			lo, hi = mo.clampBound(lo, -1), mo.clampBound(hi, 1)
		}
		var err error
		if acc[2*j], err = mo.plusBound(acc[2*j], lo, -1); err != nil {
			return err
		}
		if acc[2*j+1], err = mo.plusBound(acc[2*j+1], hi, 1); err != nil {
			return err
		}
	}
	return nil
}

// keepBlock stores the kept rows of a folded block from its lanes: each
// one's ⊛ bounds at its walk index, and a box row's group-by; with
// compression, every row whole. It runs in one goroutine, so a bound
// column may change its representation with no other writer.
func (k *aggKernel) keepBlock(blk []argChunk, lanes []expr.Lane) {
	ns, na := len(k.slots), len(k.groupBy)
	for ci, ch := range blk {
		ls := lanes[ci*ns : (ci+1)*ns]
		for i := ch.lo; i < ch.hi; i++ {
			r, o := ch.base+i, i-ch.lo
			g, rank := int(k.gs.grp[r]), int(k.gs.rank[r])
			if k.compression > 0 {
				c := &k.keep[r]
				c.m = ch.pt.mult(i)
				c.ug = c.m.Lo == 0 || rank < 0
				for j := range ls {
					c.args[j] = ls[j].At(o)
				}
				gbOf(ch.pt, i, k.groupBy, c.gb)
				continue
			}
			var at int
			switch {
			case rank < 0:
				b := -rank - 1
				at = k.kept + b
				gbOf(ch.pt, i, k.groupBy, k.boxGB[b*na:(b+1)*na:(b+1)*na])
			case k.keptAt[g] >= 0:
				at = k.keptAt[g] + rank
			default:
				continue
			}
			m := ch.pt.mult(i)
			for j := range ls {
				l := &ls[j]
				var v *rangeval.V
				if e := l.Exc[o]; e >= 0 {
					v = &l.Tri[e]
				}
				if !k.bounds.set(at, j, k.slots[j].monoid, &m, v, l.SG[o]) {
					break
				}
			}
		}
	}
}

// pointRun is one point key's run of the walk: its contributions at walk
// indices [lo, hi), the walk position of lo, the certain-box group at
// exactly its point (-1 when that group was folded directly or there is
// none) and its group-by.
type pointRun struct {
	lo, hi, at int
	cert       int
	rep        rangeval.Tuple
}

// walkSide is what the walk folds, by walk index: point runs, then boxes
// from boxAt to n. Per index: each slot's ⊛ bounds (bounds), and, with
// compression, whether the contribution's membership is uncertain (ug;
// without compression no target of the walk is certain, so every bound
// clamps). The group-by of box boxAt+b is boxGB[b*len(groupBy):], and
// boxPos is the walk position of box boxAt, which orders fold errors.
type walkSide struct {
	runs             []pointRun
	boxAt, n, boxPos int
	boxGB            rangeval.Tuple
	ug               []bool
	bounds           *boundCols
}

// walkOrder lays out what the walk folds. Without compression the kept
// rows are already in walk order. With it, the compressed side is split
// into point keys, in first-seen key order, and boxes, and each
// contribution's ⊛ bounds are computed at its index in that order, which
// is also its position.
func (k *aggKernel) walkOrder() *walkSide {
	ng := len(k.groupBy)
	if k.compression == 0 {
		ws := &walkSide{boxAt: k.kept, n: k.kept + k.gs.nbox, boxPos: k.npoints, boxGB: k.boxGB, bounds: k.bounds}
		for _, g := range k.gs.keys {
			if at := k.keptAt[g]; at >= 0 {
				ws.runs = append(ws.runs, pointRun{lo: at, hi: at + k.gs.npoint[g], at: k.walkAt[g], cert: -1, rep: k.gs.rep[g]})
			}
		}
		k.bounds.sortErrs()
		return ws
	}
	side := compressContribs(k.keep, k.compression)
	at := map[string]int{}
	var members [][]int
	var boxes []int
	var runs []pointRun
	for ci := range side {
		if !side[ci].gb.IsCertain() {
			boxes = append(boxes, ci)
			continue
		}
		key := side[ci].gb.SGKey()
		pi, ok := at[key]
		if !ok {
			pi = len(members)
			at[key] = pi
			members = append(members, nil)
			cert := -1
			if g, ok := k.gs.at[key]; ok && k.certBox[g] {
				cert = int(g)
			}
			runs = append(runs, pointRun{cert: cert, rep: side[ci].gb})
		}
		members[pi] = append(members[pi], ci)
	}
	order := make([]int, 0, len(side))
	for pi, ms := range members {
		runs[pi].lo, runs[pi].at = len(order), len(order)
		order = append(order, ms...)
		runs[pi].hi = len(order)
	}
	ws := &walkSide{runs: runs, boxAt: len(order), n: len(side), boxPos: len(order),
		boxGB: make(rangeval.Tuple, 0, len(boxes)*ng), ug: make([]bool, len(side)),
		bounds: newBoundCols(len(k.slots), len(side))}
	for _, ci := range boxes {
		ws.boxGB = append(ws.boxGB, side[ci].gb...)
	}
	order = append(order, boxes...)
	for x, ci := range order {
		c := &side[ci]
		ws.ug[x] = c.ug
		for j := range k.slots {
			if !ws.bounds.set(x, j, k.slots[j].monoid, &c.m, &c.args[j], c.args[j].SG) {
				break
			}
		}
	}
	return ws
}

// walk folds ws into the groups in s: each point run into the
// uncertain-box groups its point overlaps (and its certain-box group, if
// it was not folded directly), then the boxes, each maximal stretch of
// boxes that overlap the same groups at once. It stops at its first fold
// error, which it stores in fail. It only reads ws.
func (k *aggKernel) walk(s Span, ws *walkSide, p *ctxpoll.Poll, fail *foldErr) error {
	var unc []int
	for _, g := range k.unc {
		if g >= s.Lo && g < s.Hi {
			unc = append(unc, g)
		}
	}
	tg := make([]target, 0, s.Hi-s.Lo)
	for _, r := range ws.runs {
		if err := p.Due(); err != nil {
			return err
		}
		tg = tg[:0]
		if r.cert >= s.Lo && r.cert < s.Hi {
			tg = append(tg, target{g: r.cert, certain: true})
		}
		for _, g := range unc {
			if err := p.Due(); err != nil {
				return err
			}
			if r.rep.Overlaps(k.gs.gbox[g]) {
				tg = append(tg, target{g: g})
			}
		}
		if e, err := k.foldStretch(ws, tg, r.lo, r.hi, r.at-r.lo, p); err != nil || e.err != nil {
			*fail = e
			return err
		}
	}
	ng := len(k.groupBy)
	boxTargets := func(i int, dst []target) ([]target, error) {
		b := i - ws.boxAt
		gb := ws.boxGB[b*ng : (b+1)*ng]
		for g := s.Lo; g < s.Hi; g++ {
			if err := p.Due(); err != nil {
				return nil, err
			}
			if gb.Overlaps(k.gs.gbox[g]) {
				dst = append(dst, target{g: g})
			}
		}
		return dst, nil
	}
	next := make([]target, 0, s.Hi-s.Lo)
	var err error
	if ws.boxAt < ws.n {
		if tg, err = boxTargets(ws.boxAt, tg[:0]); err != nil {
			return err
		}
	}
	for i := ws.boxAt; i < ws.n; {
		j := i + 1
		for ; j < ws.n; j++ {
			if next, err = boxTargets(j, next[:0]); err != nil {
				return err
			}
			if !slices.Equal(tg, next) {
				break
			}
		}
		if e, err := k.foldStretch(ws, tg, i, j, ws.boxPos-ws.boxAt, p); err != nil || e.err != nil {
			*fail = e
			return err
		}
		tg, next, i = next, tg, j
	}
	return nil
}

// foldStretch folds walk indices [a, b), which share their targets tg,
// into each target: per target, slot and side, one pass over the indices
// in walk order (boundCol.fold), a piece of at most expr.RangeChunk
// indices at a time. Each accumulator takes the operands it took when
// contributions were folded one at a time, in the same order. The failing
// step it returns is the one that fold stopped at: the lowest index, a
// contribution's own ⊛ error before its folds, then the first target,
// slot and side. off turns an index into its walk position.
func (k *aggKernel) foldStretch(ws *walkSide, tg []target, a, b, off int, p *ctxpoll.Poll) (foldErr, error) {
	if len(tg) == 0 {
		return foldErr{}, nil
	}
	errs := ws.bounds.errs
	e := sort.Search(len(errs), func(x int) bool { return errs[x].at >= a })
	limit := b
	if e < len(errs) && errs[e].at < b {
		limit = errs[e].at
	}
	for lo := a; lo < limit; lo += expr.RangeChunk {
		hi := min(lo+expr.RangeChunk, limit)
		at, ferr := hi, error(nil)
		for _, t := range tg {
			if err := p.Due(); err != nil {
				return foldErr{}, err
			}
			if i, err := k.foldTarget(ws, t, lo, min(hi, at+1)); err != nil && (ferr == nil || i < at) {
				at, ferr = i, err
			}
		}
		if ferr != nil {
			return foldErr{at: at + off, err: ferr}, nil
		}
	}
	if limit < b {
		return foldErr{at: limit + off, err: errs[e].err}, nil
	}
	return foldErr{}, nil
}

// foldTarget folds walk indices [a, b) into target t, slot by slot and
// side by side, and returns the first failing step: the lowest index,
// then the first slot and side. A bound is clamped to the neutral element
// unless the contribution certainly belongs to a target that is certain.
func (k *aggKernel) foldTarget(ws *walkSide, t target, a, b int) (int, error) {
	ns := len(k.slots)
	acc := k.acc[2*ns*t.g : 2*ns*(t.g+1)]
	for x := a; x < b; {
		y, clamp := b, true
		if t.certain {
			clamp = ws.ug[x]
			for y = x + 1; y < b && ws.ug[y] == clamp; y++ {
			}
		}
		at, ferr := y, error(nil)
		for j := range k.slots {
			mo, c := k.slots[j].monoid, &ws.bounds.cols[j]
			for side, dir := range [2]int{-1, 1} {
				if i, err := c.fold(mo, dir, clamp, &acc[2*j+side], x, min(y, at+1)); err != nil && (ferr == nil || i < at) {
					at, ferr = i, err
				}
			}
		}
		if ferr != nil {
			return at, ferr
		}
		x = y
	}
	return b, nil
}

// target is one output group a contribution folds into. A contribution
// counts as a certain group member only when its own group membership is
// certain AND the group's box is exactly its (certain) group-by point —
// the condition θ_c of the rewrite (Section 10.2). A widened group box
// means the output may represent other groups, for which this tuple's
// contribution is not guaranteed.
type target struct {
	g       int
	certain bool
}

// rows appends one output row per group, in group order.
func (k *aggKernel) rows(out *Relation, plans []aggPlan, noGroup bool, p *ctxpoll.Poll) (*Relation, error) {
	ns := len(k.slots)
	for g, box := range k.gs.gbox {
		if err := p.Due(); err != nil {
			return nil, err
		}
		m := One
		if !noGroup {
			ms := k.mults[g]
			m = Mult{Lo: delta(ms.lo), SG: delta(ms.sg), Hi: ms.hi}
		}
		acc, sg := k.acc[2*ns*g:], k.sg[ns*g:]
		bounds := func(j int) rangeval.V { return rangeval.New(acc[2*j], sg[j], acc[2*j+1]) }
		row := make(rangeval.Tuple, 0, len(box)+len(plans))
		row = append(row, box...)
		for _, pl := range plans {
			v := bounds(pl.slot)
			if pl.cnt >= 0 {
				v = avgBounds(v, bounds(pl.cnt))
			}
			row = append(row, v)
		}
		out.Add(Tuple{Vals: row, M: m})
	}
	return out, nil
}

// argPrograms evaluates the slots' arguments over one chunk of rows at a
// time, for one worker: one range-vector program per slot, compiled
// together so that they share their temporaries. A columnar part is read
// in place. A row part first has the attributes the arguments read
// gathered into dense columns, reused from chunk to chunk.
type argPrograms struct {
	slots    []slot
	progs    []*expr.RangeProg // nil when an argument does not compile
	attrs    []int             // the attributes the arguments read
	gathered [][]rangeval.V    // per attribute of attrs: a row part's chunk
	cols     []rangeval.Col    // a row part's chunk as columns
	row      rangeval.Tuple    // scratch for a gathered columnar row
}

// newArgPrograms compiles the slots' arguments. When one does not
// compile (an Expr outside package expr), every chunk is evaluated row by
// row.
func newArgPrograms(slots []slot) *argPrograms {
	a := &argPrograms{slots: slots}
	es := make([]expr.Expr, len(slots))
	seen := map[int]bool{}
	for j := range slots {
		es[j] = slots[j].eval
		for _, c := range expr.Attrs(es[j]) {
			if !seen[c] {
				seen[c] = true
				a.attrs = append(a.attrs, c)
			}
		}
	}
	a.progs, _ = expr.CompileRanges(es)
	a.gathered = make([][]rangeval.V, len(a.attrs))
	return a
}

// eval writes the arguments of rows [lo, hi) of pt to lanes, one per
// slot. On an error it evaluates the chunk again row-major with
// EvalRange, so the error it returns, with its row's offset from lo, is
// the one row-at-a-time evaluation reports.
func (a *argPrograms) eval(pt *aggPart, lo, hi int, lanes []expr.Lane) (int, error) {
	if a.progs != nil && a.lanes(pt, lo, hi, lanes) {
		return 0, nil
	}
	return a.rowMajor(pt, lo, hi, lanes)
}

// lanes runs the programs over rows [lo, hi) of pt into lanes, and
// reports whether every one succeeded.
func (a *argPrograms) lanes(pt *aggPart, lo, hi int, lanes []expr.Lane) bool {
	cols := pt.cols
	if !pt.columnar {
		var ok bool
		if cols, ok = a.gather(pt, lo, hi); !ok {
			return false
		}
		lo, hi = 0, hi-lo
	}
	for j, p := range a.progs {
		if p.EvalLane(cols, lo, hi, nil, &lanes[j]) != nil {
			return false
		}
	}
	return true
}

// gather returns rows [lo, hi) of row part pt as columns: each attribute
// the arguments read copied into its buffer, the others left empty. ok is
// false when some row lacks one of them.
func (a *argPrograms) gather(pt *aggPart, lo, hi int) (cols []rangeval.Col, ok bool) {
	for x, c := range a.attrs {
		if c < 0 {
			return nil, false
		}
		buf := a.gathered[x][:0]
		if cap(buf) < hi-lo {
			buf = make([]rangeval.V, 0, max(hi-lo, min(2*cap(buf), expr.RangeChunk)))
		}
		for i := lo; i < hi; i++ {
			vals := pt.rows[i].Vals
			if c >= len(vals) {
				return nil, false
			}
			buf = append(buf, vals[c])
		}
		a.gathered[x] = buf
		for len(a.cols) <= c {
			a.cols = append(a.cols, rangeval.Col{})
		}
		a.cols[c] = rangeval.ColFromDense(buf)
	}
	return a.cols, true
}

// rowMajor evaluates rows [lo, hi) of pt row by row with EvalRange, slot
// by slot, into lanes. Its error, with its row's offset from lo, is the
// one row-at-a-time evaluation reports.
func (a *argPrograms) rowMajor(pt *aggPart, lo, hi int, lanes []expr.Lane) (int, error) {
	for j := range lanes {
		lanes[j].Reset(hi - lo)
	}
	for i := lo; i < hi; i++ {
		row := a.tuple(pt, i)
		for j := range a.slots {
			v, err := a.slots[j].eval.EvalRange(row)
			if err != nil {
				return i - lo, fmt.Errorf("core: aggregate %s: %w", a.slots[j].name, err)
			}
			lanes[j].Set(i-lo, &v)
		}
	}
	return 0, nil
}

// tuple returns row i of pt: a row part's stored tuple, which is only
// read, or a columnar row gathered into the evaluator's own scratch.
func (a *argPrograms) tuple(pt *aggPart, i int) rangeval.Tuple {
	if !pt.columnar {
		return pt.rows[i].Vals
	}
	a.row = a.row[:0]
	for _, c := range pt.cols {
		a.row = append(a.row, c.At(i))
	}
	return a.row
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
			for j := range merged.gb {
				merged.gb[j].Widen(&c.gb[j])
			}
			merged.m.Hi = addHi(merged.m.Hi, c.m.Hi)
			for j := range merged.args {
				merged.args[j].Widen(&c.args[j])
			}
		}
		out = append(out, merged)
	}
	return out
}
