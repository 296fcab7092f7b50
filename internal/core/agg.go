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
func (m aggMonoid) starBounds(k *Mult, v *rangeval.V) (lo, hi types.Value, err error) {
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
// join: group-by ranges, tuple annotation and one argument range per slot.
// gb and args are views into arenas shared by all contributions.
type contrib struct {
	gb   rangeval.Tuple
	m    Mult
	args []rangeval.V
	ug   bool // ug(G, R, t): group membership is uncertain
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
	plans, slots, err := planAggs(specs)
	if err != nil {
		return nil, err
	}
	return aggregate(ctx, in, groupBy, plans, slots, outSchema, opt)
}

// buildContribs evaluates one argument range per slot for every tuple,
// chunked across workers (each contribution is independent and lands in
// its input slot). Argument and group-by ranges are carved from two arenas
// allocated once, not per tuple.
func buildContribs(ctx context.Context, in *Relation, groupBy []int, slots []slot, workers int) ([]contrib, error) {
	n, ns, ng := len(in.Tuples), len(slots), len(groupBy)
	out := make([]contrib, n)
	args := make([]rangeval.V, n*ns)
	gbs := make(rangeval.Tuple, n*ng)
	spans := ChunkSpans(n, workers, minParTuples)
	err := runSpans(ctx, spans, func(_ int, s Span, p *ctxpoll.Poll) error {
		for i := s.Lo; i < s.Hi; i++ {
			if err := p.Due(); err != nil {
				return err
			}
			tup := &in.Tuples[i]
			a := args[i*ns : (i+1)*ns : (i+1)*ns]
			for j := range slots {
				v, err := slots[j].eval.EvalRange(tup.Vals)
				if err != nil {
					return fmt.Errorf("core: aggregate %s: %w", slots[j].name, err)
				}
				a[j] = v
			}
			gb := gbs[i*ng : (i+1)*ng : (i+1)*ng]
			for j, c := range groupBy {
				gb[j] = tup.Vals[c]
			}
			out[i] = contrib{gb: gb, m: tup.M, args: a, ug: tup.M.Lo == 0 || !gb.IsCertain()}
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
func aggregate(ctx context.Context, in *Relation, groupBy []int, plans []aggPlan, slots []slot, outSchema schema.Schema, opt Options) (*Relation, error) {
	workers := opt.workerCount()
	exact, err := buildContribs(ctx, in.Dense(), groupBy, slots, workers)
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
			if p.cnt >= 0 {
				row[j] = rangeval.Certain(types.Float(0))
			} else {
				row[j] = rangeval.Certain(slots[p.slot].monoid.neutral())
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
	f := &aggFold{plans: plans, slots: slots, exact: exact, join: joinSide, noGroup: noGroup}
	f.groups = make([]*outGroup, len(order))
	for gi, k := range order {
		f.groups[gi] = groups[k]
	}
	f.index(order)

	// Every output group folds an independent slice of read-only state, so
	// groups are computed in parallel chunks; each chunk walks the shared
	// contribution order for its own groups, and appending rows in group
	// order keeps the output identical to the serial walk.
	rows := make([]Tuple, len(order))
	spans := ChunkSpans(len(order), workers, minParGroups)
	fails := make([]foldErr, len(spans))
	err = runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		at, err := f.fold(s, rows, p)
		if err != nil && at >= 0 {
			fails[c] = foldErr{at: at, err: err}
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Each chunk stops at its first failing step, and the serial walk
	// would stop at the earliest of them: report that one.
	var first *foldErr
	for c := range fails {
		if fails[c].err != nil && (first == nil || fails[c].at < first.at) {
			first = &fails[c]
		}
	}
	if first != nil {
		return nil, first.err
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

// foldErr is a failed fold step and its position in the walk.
type foldErr struct {
	at  int
	err error
}

// aggFold is the read-only state every chunk of output groups folds.
type aggFold struct {
	plans   []aggPlan
	slots   []slot
	exact   []contrib   // the α-members' contributions (SG and multiplicity)
	join    []contrib   // the overlap join's side, possibly compressed
	groups  []*outGroup // in output order
	points  []pointKey  // attribute-certain contributions, by first-seen key
	boxes   []int       // the other contributions, in input order
	noGroup bool
}

// pointKey is one attribute-certain group-by point of the join side.
type pointKey struct {
	members []int // its contributions, in input order
	cert    int   // the certain-box output group at exactly this point, or -1
}

// index splits the join side into point keys, in first-seen key order,
// and box contributions. Together they fix the one order every group
// folds in: point contributions key by key, then boxes. A fixed order
// keeps float sums deterministic, and input-order summation keeps them
// monotone under round-to-nearest, so lb ≤ world ≤ ub holds exactly.
func (f *aggFold) index(order []string) {
	at := map[string]int{}
	for ci := range f.join {
		gb := f.join[ci].gb
		if !gb.IsCertain() {
			f.boxes = append(f.boxes, ci)
			continue
		}
		k := gb.SGKey()
		pi, ok := at[k]
		if !ok {
			pi = len(f.points)
			at[k] = pi
			f.points = append(f.points, pointKey{cert: -1})
		}
		f.points[pi].members = append(f.points[pi].members, ci)
	}
	for gi, k := range order {
		if pi, ok := at[k]; ok && f.groups[gi].gbox.IsCertain() {
			f.points[pi].cert = gi
		}
	}
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

// fold computes the rows of output groups [s.Lo, s.Hi) into rows. It
// walks the shared contribution order once; each group receives exactly
// the subsequence it overlaps, so its +_M sequence does not depend on how
// groups are chunked. It returns the walk position of a failing step, or
// -1 when the query was cancelled.
func (f *aggFold) fold(s Span, rows []Tuple, p *ctxpoll.Poll) (int, error) {
	ns := len(f.slots)
	w := walker{
		slots:   f.slots,
		base:    s.Lo,
		acc:     make([]types.Value, 2*ns*(s.Hi-s.Lo)),
		bounds:  make([]types.Value, 4*ns),
		targets: make([]target, 0, s.Hi-s.Lo),
	}
	for i := 0; i < len(w.acc); i += 2 * ns {
		for j := range f.slots {
			n := f.slots[j].monoid.neutral()
			w.acc[i+2*j], w.acc[i+2*j+1] = n, n
		}
	}
	var unc []int // groups of the chunk whose box is uncertain
	for gi := s.Lo; gi < s.Hi; gi++ {
		if !f.groups[gi].gbox.IsCertain() {
			unc = append(unc, gi)
		}
	}

	// Lower/upper aggregate bounds from ð(g) (Definition 26). A point key's
	// targets are the certain-box group at that point plus the
	// uncertain-box groups it overlaps, found once per key.
	at := 0
	for pi := range f.points {
		pt := &f.points[pi]
		w.targets = w.targets[:0]
		if pt.cert >= s.Lo && pt.cert < s.Hi {
			w.targets = append(w.targets, target{g: pt.cert, certain: true})
		}
		rep := f.join[pt.members[0]].gb
		for _, gi := range unc {
			if rep.Overlaps(f.groups[gi].gbox) {
				w.targets = append(w.targets, target{g: gi})
			}
		}
		for _, ci := range pt.members {
			if err := p.Due(); err != nil {
				return -1, err
			}
			if err := w.add(&f.join[ci]); err != nil {
				return at, err
			}
			at++
		}
	}
	for _, ci := range f.boxes {
		c := &f.join[ci]
		w.targets = w.targets[:0]
		for gi := s.Lo; gi < s.Hi; gi++ {
			if c.gb.Overlaps(f.groups[gi].gbox) {
				w.targets = append(w.targets, target{g: gi})
			}
		}
		if err := p.Due(); err != nil {
			return -1, err
		}
		if err := w.add(c); err != nil {
			return at, err
		}
		at++
	}

	sg := make([]types.Value, ns)
	for gi := s.Lo; gi < s.Hi; gi++ {
		g := f.groups[gi]
		// SG results: exactly the α-members, standard K-relational
		// semantics over the SGW (mirrors the piggy-backed computation of
		// the optimized rewrite).
		for j := range f.slots {
			sg[j] = f.slots[j].monoid.neutral()
		}
		for _, i := range g.members {
			if err := p.Due(); err != nil {
				return -1, err
			}
			c := &f.exact[i]
			if c.m.SG == 0 {
				continue
			}
			for j := range f.slots {
				m := f.slots[j].monoid
				x, err := m.star(c.m.SG, c.args[j].SG)
				if err == nil {
					sg[j], err = m.plus(sg[j], x)
				}
				if err != nil {
					return at + gi, err
				}
			}
		}

		// Row annotation (Definition 27/28), always from exact members.
		var m Mult
		if f.noGroup {
			m = One
		} else {
			var loSum, sgSum, hiSum int64
			for _, i := range g.members {
				c := &f.exact[i]
				if !c.ug {
					loSum += c.m.Lo
				}
				sgSum += c.m.SG
				hiSum += c.m.Hi
			}
			m = Mult{Lo: delta(loSum), SG: delta(sgSum), Hi: hiSum}
		}

		acc := w.acc[2*ns*(gi-s.Lo):]
		bounds := func(j int) rangeval.V { return rangeval.New(acc[2*j], sg[j], acc[2*j+1]) }
		row := make(rangeval.Tuple, 0, len(g.gbox)+len(f.plans))
		row = append(row, g.gbox...)
		for _, pl := range f.plans {
			v := bounds(pl.slot)
			if pl.cnt >= 0 {
				v = avgBounds(v, bounds(pl.cnt))
			}
			row = append(row, v)
		}
		rows[gi] = Tuple{Vals: row, M: m}
	}
	return at, nil
}

// walker folds contributions into the lower/upper accumulators of one
// chunk of output groups: acc holds lo, hi per (group, slot).
type walker struct {
	slots   []slot
	base    int // the chunk's first group
	acc     []types.Value
	bounds  []types.Value // per slot lo, hi; then the same clamped
	targets []target
}

// add folds contribution c into every current target. Its ⊛ bounds are
// computed once per slot, and its lbagg/ubagg clamp once if any target
// needs it: they do not depend on the group.
func (w *walker) add(c *contrib) error {
	if len(w.targets) == 0 {
		return nil
	}
	ns := len(w.slots)
	b := w.bounds
	for j := range w.slots {
		lo, hi, err := w.slots[j].monoid.starBounds(&c.m, &c.args[j])
		if err != nil {
			return err
		}
		b[2*j], b[2*j+1] = lo, hi
	}
	clamped := false
	for _, t := range w.targets {
		cb := b[:2*ns]
		if c.ug || !t.certain {
			if !clamped {
				// A tuple that may not belong to the group contributes at
				// worst the neutral element.
				for j := range w.slots {
					n := w.slots[j].monoid.neutral()
					b[2*ns+2*j] = types.Min(n, b[2*j])
					b[2*ns+2*j+1] = types.Max(n, b[2*j+1])
				}
				clamped = true
			}
			cb = b[2*ns:]
		}
		acc := w.acc[2*ns*(t.g-w.base):]
		for j := range w.slots {
			m := w.slots[j].monoid
			var err error
			if acc[2*j], err = m.plus(acc[2*j], cb[2*j]); err != nil {
				return err
			}
			if acc[2*j+1], err = m.plus(acc[2*j+1], cb[2*j+1]); err != nil {
				return err
			}
		}
	}
	return nil
}
