package core

import (
	"context"
	"fmt"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// oracleContribs evaluates one argument range per slot for every tuple,
// chunked across workers (each contribution is independent and lands in
// its input slot). Argument and group-by ranges are carved from two arenas
// allocated once, not per tuple.
func oracleContribs(ctx context.Context, in *Relation, groupBy []int, slots []slot, workers int) ([]contrib, error) {
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

// oracleGroup is one output group of the default grouping strategy.
type oracleGroup struct {
	gbox    rangeval.Tuple
	members []int
}

// oracleGroups assigns every contribution to its output group (Definition
// 24: one output per distinct SG group-by value) and folds the group's
// bounding box (Definition 25). Workers build partial group maps over
// contiguous chunks; merging partials in chunk order reproduces the serial
// first-seen group order and ascending member order exactly.
func oracleGroups(ctx context.Context, exact []contrib, groupBy []int, workers, sizeHint int) (map[string]*oracleGroup, []string, error) {
	spans := ChunkSpans(len(exact), workers, minParTuples)
	maps := make([]map[string]*oracleGroup, len(spans))
	orders := make([][]string, len(spans))
	if err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		var err error
		maps[c], orders[c], err = oracleGroupsRange(exact, groupBy, s.Lo, s.Hi, sizeHint, p)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if len(spans) == 0 {
		return map[string]*oracleGroup{}, nil, nil
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

// oracleGroupsRange is the serial group assignment over contribs [lo, hi).
// sizeHint (the planner's estimated group count, 0 = none) pre-sizes the
// group map; it is capped against the input size so a wild over-estimate
// cannot allocate more buckets than distinct groups are possible.
func oracleGroupsRange(exact []contrib, groupBy []int, lo, hi, sizeHint int, p *ctxpoll.Poll) (map[string]*oracleGroup, []string, error) {
	if sizeHint < 0 {
		sizeHint = 0
	}
	if sizeHint > hi-lo {
		sizeHint = hi - lo
	}
	groups := make(map[string]*oracleGroup, sizeHint)
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
			g = &oracleGroup{gbox: sgCert}
			groups[k] = g
			order = append(order, k)
		}
		g.gbox = g.gbox.Union(exact[i].gb) // Definition 25
		g.members = append(g.members, i)
	}
	return groups, order, nil
}

// naiveAggregate is the aggregation kernel as it was before rows were
// folded straight into their groups: every row's contribution is
// materialized, grouped (Definitions 24-25), and every group walks the
// shared contribution order (Definition 26). It is the oracle the
// production kernel must match byte for byte, answers and errors alike.
func naiveAggregate(ctx context.Context, in *Relation, groupBy []int, plans []aggPlan, slots []slot, outSchema schema.Schema, opt Options) (*Relation, error) {
	workers := opt.workerCount()
	exact, err := oracleContribs(ctx, in.Dense(), groupBy, slots, workers)
	if err != nil {
		return nil, err
	}

	// Default grouping strategy (Definition 24): one output per distinct
	// SG group-by value; α assigns every tuple by its SG values. Without
	// group-by there is a single output group.
	groups, order, err := oracleGroups(ctx, exact, groupBy, workers, opt.SizeHint)
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
	f := &oracleFold{plans: plans, slots: slots, exact: exact, join: joinSide, noGroup: noGroup}
	f.groups = make([]*oracleGroup, len(order))
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
	fails := make([]oracleFoldErr, len(spans))
	err = runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		at, err := f.fold(s, rows, p)
		if err != nil && at >= 0 {
			fails[c] = oracleFoldErr{at: at, err: err}
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Each chunk stops at its first failing step, and the serial walk
	// would stop at the earliest of them: report that one.
	var first *oracleFoldErr
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

// oracleFoldErr is a failed fold step and its position in the walk.
type oracleFoldErr struct {
	at  int
	err error
}

// oracleFold is the read-only state every chunk of output groups folds.
type oracleFold struct {
	plans   []aggPlan
	slots   []slot
	exact   []contrib        // the α-members' contributions (SG and multiplicity)
	join    []contrib        // the overlap join's side, possibly compressed
	groups  []*oracleGroup   // in output order
	points  []oraclePointKey // attribute-certain contributions, by first-seen key
	boxes   []int            // the other contributions, in input order
	noGroup bool
}

// oraclePointKey is one attribute-certain group-by point of the join side.
type oraclePointKey struct {
	members []int // its contributions, in input order
	cert    int   // the certain-box output group at exactly this point, or -1
}

// index splits the join side into point keys, in first-seen key order,
// and box contributions. Together they fix the one order every group
// folds in: point contributions key by key, then boxes. A fixed order
// keeps float sums deterministic, and input-order summation keeps them
// monotone under round-to-nearest, so lb ≤ world ≤ ub holds exactly.
func (f *oracleFold) index(order []string) {
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
			f.points = append(f.points, oraclePointKey{cert: -1})
		}
		f.points[pi].members = append(f.points[pi].members, ci)
	}
	for gi, k := range order {
		if pi, ok := at[k]; ok && f.groups[gi].gbox.IsCertain() {
			f.points[pi].cert = gi
		}
	}
}

// fold computes the rows of output groups [s.Lo, s.Hi) into rows. It
// walks the shared contribution order once; each group receives exactly
// the subsequence it overlaps, so its +_M sequence does not depend on how
// groups are chunked. It returns the walk position of a failing step, or
// -1 when the query was cancelled.
func (f *oracleFold) fold(s Span, rows []Tuple, p *ctxpoll.Poll) (int, error) {
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
					loSum = addHi(loSum, c.m.Lo)
				}
				sgSum = addHi(sgSum, c.m.SG)
				hiSum = addHi(hiSum, c.m.Hi)
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
// chunk of output groups, a contribution at a time: acc holds lo, hi per
// (group, slot).
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
			if acc[2*j], err = m.plusBound(acc[2*j], cb[2*j], -1); err != nil {
				return err
			}
			if acc[2*j+1], err = m.plusBound(acc[2*j+1], cb[2*j+1], 1); err != nil {
				return err
			}
		}
	}
	return nil
}
