package core

import (
	"context"
	"errors"
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
	pos  int  // its position in the walk, which orders fold errors
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
				v := pt.val(c, i)
				key = v.SG.AppendKey(key)
				point = point && v.IsCertain()
			}
			g, ok := gs.at[string(key)]
			if !ok {
				g = int32(len(gs.gbox))
				gs.at[string(key)] = g
				box := make(rangeval.Tuple, len(groupBy))
				for j, c := range groupBy {
					box[j] = rangeval.Certain(pt.val(c, i).SG)
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
					gs.rep[g] = gbOf(pt, i, groupBy, nil)
				}
				gs.rank = append(gs.rank, int32(gs.npoint[g]))
				gs.npoint[g]++
				continue
			}
			box := gs.gbox[g]
			for j, c := range groupBy {
				box[j] = box[j].Union(pt.val(c, i)) // Definition 25
			}
			gs.nbox++
			gs.rank = append(gs.rank, -int32(gs.nbox))
		}
	}
	return gs, nil
}

// gbOf returns row i's group-by values, written into dst unless it is nil.
func gbOf(pt *aggPart, i int, groupBy []int, dst rangeval.Tuple) rangeval.Tuple {
	if dst == nil {
		dst = make(rangeval.Tuple, len(groupBy))
	}
	for j, c := range groupBy {
		dst[j] = pt.val(c, i)
	}
	return dst
}

// aggKernel is the state of one aggregation after pass 1.
//
// Pass 2 folds each row in input order: its SG contribution and
// multiplicity go to its α-group, and a point row whose group's box is
// certain adds its ⊛ bounds (Definition 26) to that group at once. Only
// rows that may reach a group whose box is uncertain (the set U) are kept
// as contribs: box rows, and the point rows of keys that overlap a group
// in U. The walk then folds those in the order every group folded before
// rows were folded directly — point keys in first-seen order, then boxes
// in input order — so each group still receives its point rows in input
// order followed by the boxes that overlap it, every float + runs on the
// same operands in the same order, and every answer is unchanged.
//
// With compression every row is kept and the walk runs over the
// compressed side (Section 10.5), as it always has.
type aggKernel struct {
	in      *AggInput
	groupBy []int
	slots   []slot
	gs      *aggGroups
	// compression is Options.AggCompression: > 0 keeps every row.
	compression int
	certBox     []bool // per group: its box is certain
	unc         []int  // U, ascending

	// Per point key: the walk position of its first point row, and the
	// slot of its first kept row (-1 when none is kept). npoints is the
	// number of point rows, kept the number of kept point rows.
	walkAt, keptAt []int
	npoints, kept  int

	// The kept rows: in walk order without compression, in input order
	// with it. Their ranges live in two arenas.
	keep []contrib
	args []rangeval.V
	gbs  rangeval.Tuple

	// Per group: lo, hi per slot; the SG result per slot; the row
	// annotation sums; the group's first SG error.
	acc   []types.Value
	sg    []types.Value
	mults []multSum
	sgErr []error
}

// multSum accumulates a group's row annotation (Definitions 27 and 28).
type multSum struct{ lo, sg, hi int64 }

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

	walk, runs, boxAt := k.walkOrder()
	walked := make([]foldErr, len(spans))
	if err := runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
		return k.walk(s, walk, runs, boxAt, p, &walked[c])
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
// position and whether it is kept, and the arenas for the kept rows.
func newAggKernel(in *AggInput, groupBy []int, slots []slot, gs *aggGroups, compression int, p *ctxpoll.Poll) (*aggKernel, error) {
	ng, ns := len(gs.gbox), len(slots)
	k := &aggKernel{
		in: in, groupBy: groupBy, slots: slots, gs: gs, compression: compression,
		certBox: make([]bool, ng),
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
		if !k.certBox[g] {
			k.unc = append(k.unc, g)
		}
		for j := range slots {
			n := slots[j].monoid.neutral()
			k.acc[2*ns*g+2*j], k.acc[2*ns*g+2*j+1] = n, n
			k.sg[ns*g+j] = n
		}
	}
	nkeep := in.n
	if compression == 0 {
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
		}
		nkeep = k.kept + gs.nbox
	}
	k.keep = make([]contrib, nkeep)
	k.args = make([]rangeval.V, nkeep*ns)
	k.gbs = make(rangeval.Tuple, nkeep*len(groupBy))
	return k, nil
}

// argChunk is rows [lo, hi) of part pt, at most aggChunk of them; base is
// the input row of the part's first row.
type argChunk struct {
	pt           *aggPart
	lo, hi, base int
}

// foldRows is pass 2. It visits the input a block of chunks at a time:
// a block's arguments are evaluated with its chunks split across workers,
// and the block is folded with the groups split by spans, so every group
// still receives its rows in input order. With more than one worker the
// next block is evaluated while the current one folds. It returns the
// first argument error in row-major order, or else the direct fold's
// earliest error by walk position.
func (k *aggKernel) foldRows(ctx context.Context, workers int, spans []Span) (argErr, direct foldErr, err error) {
	var chunks []argChunk
	base := 0
	for pi := range k.in.parts {
		pt := &k.in.parts[pi]
		for lo := 0; lo < pt.n; lo += aggChunk {
			chunks = append(chunks, argChunk{pt: pt, lo: lo, hi: min(lo+aggChunk, pt.n), base: base})
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
	// With workers, two buffers: block b+1 is evaluated into one while
	// block b folds from the other.
	nbuf := min(workers, 2)
	args := make([][]rangeval.V, nbuf)
	argErrs := make([][]foldErr, nbuf)
	for x := range args {
		args[x] = make([]rangeval.V, per*aggChunk*ns)
		argErrs[x] = make([]foldErr, per)
	}
	evals := make([]argEval, per)
	evalBlock := func(b int) error {
		blk, out, errs := block(b), args[b%nbuf], argErrs[b%nbuf]
		return runSpans(ctx, ChunkSpans(len(blk), workers, 1), func(c int, s Span, p *ctxpoll.Poll) error {
			ev := &evals[c]
			ev.slots = k.slots
			for ci := s.Lo; ci < s.Hi; ci++ {
				if err := p.Due(); err != nil {
					return err
				}
				ch := blk[ci]
				if bad, err := ev.eval(ch.pt, ch.lo, ch.hi, out[ci*aggChunk*ns:(ci*aggChunk+ch.hi-ch.lo)*ns]); err != nil {
					errs[c] = foldErr{at: ch.base + ch.lo + bad, err: err}
					return nil
				}
			}
			return nil
		})
	}
	walkers := make([]walker, len(spans))
	for c := range walkers {
		walkers[c] = walker{slots: k.slots, acc: k.acc, bounds: make([]types.Value, 4*ns), targets: make([]target, 0, 1)}
	}
	directs := make([]foldErr, len(spans))
	foldBlock := func(blk []argChunk, args []rangeval.V) error {
		return runSpans(ctx, spans, func(c int, s Span, p *ctxpoll.Poll) error {
			for ci, ch := range blk {
				a := args[ci*aggChunk*ns:]
				for i := ch.lo; i < ch.hi; i++ {
					if err := p.Due(); err != nil {
						return err
					}
					r := ch.base + i
					if g := int(k.gs.grp[r]); g >= s.Lo && g < s.Hi {
						n := i - ch.lo
						k.foldRow(ch.pt, i, r, a[n*ns:(n+1)*ns:(n+1)*ns], &walkers[c], &directs[c])
					}
				}
			}
			return nil
		})
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
		if err := foldBlock(block(b), args[x]); err != nil {
			if ahead != nil {
				<-ahead
			}
			return foldErr{}, foldErr{}, err
		}
	}
	return foldErr{}, firstErr(directs), nil
}

// foldRow folds row r (row i of pt) with argument ranges args.
func (k *aggKernel) foldRow(pt *aggPart, i, r int, args []rangeval.V, w *walker, direct *foldErr) {
	g, rank := int(k.gs.grp[r]), int(k.gs.rank[r])
	point := rank >= 0
	c := contrib{m: pt.mult(i), args: args}
	c.ug = c.m.Lo == 0 || !point

	// SG results: exactly the α-members, standard K-relational semantics
	// over the SGW (mirrors the piggy-backed computation of the optimized
	// rewrite).
	if c.m.SG != 0 && k.sgErr[g] == nil {
		ns := len(k.slots)
		sg := k.sg[ns*g : ns*(g+1)]
		for j := range k.slots {
			m := k.slots[j].monoid
			x, err := m.star(c.m.SG, args[j].SG)
			if err == nil {
				sg[j], err = m.plus(sg[j], x)
			}
			if err != nil {
				k.sgErr[g] = err
				break
			}
		}
	}
	// Row annotation (Definitions 27 and 28).
	ms := &k.mults[g]
	if !c.ug {
		ms.lo += c.m.Lo
	}
	ms.sg += c.m.SG
	ms.hi += c.m.Hi

	switch {
	case k.compression > 0:
		k.retain(r, pt, i, c)
	case !point:
		b := -rank - 1
		c.pos = k.npoints + b
		k.retain(k.kept+b, pt, i, c)
	default:
		c.pos = k.walkAt[g] + rank
		if k.certBox[g] {
			w.targets = append(w.targets[:0], target{g: g, certain: true})
			if err := w.add(&c); err != nil {
				if e := (foldErr{at: c.pos, err: err}); e.earlier(*direct) {
					*direct = e
				}
			}
		}
		if k.keptAt[g] >= 0 {
			k.retain(k.keptAt[g]+rank, pt, i, c)
		}
	}
}

// retain keeps row i of pt as contrib slot, copying its ranges into the
// arenas.
func (k *aggKernel) retain(slot int, pt *aggPart, i int, c contrib) {
	ns, ng := len(k.slots), len(k.groupBy)
	a := k.args[slot*ns : (slot+1)*ns : (slot+1)*ns]
	copy(a, c.args)
	c.args = a
	c.gb = gbOf(pt, i, k.groupBy, k.gbs[slot*ng:(slot+1)*ng:(slot+1)*ng])
	k.keep[slot] = c
}

// pointRun is one point key's run of the walk: its contributions
// walk[lo:hi], the certain-box group at exactly its point (-1 when that
// group was folded directly or there is none) and its group-by.
type pointRun struct {
	lo, hi int
	cert   int
	rep    rangeval.Tuple
}

// walkOrder lays out what the walk folds: point runs, then the boxes from
// walk[boxAt:]. Without compression the kept rows are already in walk
// order. With it, the compressed side is split into point keys, in
// first-seen key order, and boxes; each contribution's position is its
// index in that order.
func (k *aggKernel) walkOrder() (walk []contrib, runs []pointRun, boxAt int) {
	if k.compression == 0 {
		for _, g := range k.gs.keys {
			if at := k.keptAt[g]; at >= 0 {
				runs = append(runs, pointRun{lo: at, hi: at + k.gs.npoint[g], cert: -1, rep: k.gs.rep[g]})
			}
		}
		return k.keep, runs, k.kept
	}
	side := compressContribs(k.keep, k.compression)
	at := map[string]int{}
	var members [][]int
	var boxes []int
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
	walk = make([]contrib, 0, len(side))
	for pi, ms := range members {
		runs[pi].lo = len(walk)
		for _, ci := range ms {
			walk = append(walk, side[ci])
		}
		runs[pi].hi = len(walk)
	}
	boxAt = len(walk)
	for _, ci := range boxes {
		walk = append(walk, side[ci])
	}
	for ci := range walk {
		walk[ci].pos = ci
	}
	return walk, runs, boxAt
}

// walk folds the walk into the groups in s: each point run into the
// uncertain-box groups its point overlaps (and its certain-box group, if
// it was not folded directly), then each box into every group it
// overlaps. It stops at its first fold error, which it stores in fail.
func (k *aggKernel) walk(s Span, walk []contrib, runs []pointRun, boxAt int, p *ctxpoll.Poll, fail *foldErr) error {
	w := walker{slots: k.slots, acc: k.acc, bounds: make([]types.Value, 4*len(k.slots)), targets: make([]target, 0, s.Hi-s.Lo)}
	var unc []int
	for _, g := range k.unc {
		if g >= s.Lo && g < s.Hi {
			unc = append(unc, g)
		}
	}
	for _, r := range runs {
		if err := p.Due(); err != nil {
			return err
		}
		w.targets = w.targets[:0]
		if r.cert >= s.Lo && r.cert < s.Hi {
			w.targets = append(w.targets, target{g: r.cert, certain: true})
		}
		for _, g := range unc {
			if err := p.Due(); err != nil {
				return err
			}
			if r.rep.Overlaps(k.gs.gbox[g]) {
				w.targets = append(w.targets, target{g: g})
			}
		}
		for ci := r.lo; ci < r.hi && len(w.targets) > 0; ci++ {
			if err := p.Due(); err != nil {
				return err
			}
			if err := w.add(&walk[ci]); err != nil {
				*fail = foldErr{at: walk[ci].pos, err: err}
				return nil
			}
		}
	}
	for ci := boxAt; ci < len(walk); ci++ {
		c := &walk[ci]
		w.targets = w.targets[:0]
		for g := s.Lo; g < s.Hi; g++ {
			if err := p.Due(); err != nil {
				return err
			}
			if c.gb.Overlaps(k.gs.gbox[g]) {
				w.targets = append(w.targets, target{g: g})
			}
		}
		if err := w.add(c); err != nil {
			*fail = foldErr{at: c.pos, err: err}
			return nil
		}
	}
	return nil
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

// aggChunk is how many rows pass 2 evaluates arguments for at a time.
const aggChunk = 256

// argEval evaluates the slots' arguments over a chunk of rows of one
// part, node by node: an attribute is read from its column, a constant is
// broadcast, arithmetic applies Definition 9's rule row by row, and any
// other node is evaluated per row with EvalRange.
type argEval struct {
	slots []slot
	tmp   [][]rangeval.V // right operands, one buffer per arithmetic depth
	row   rangeval.Tuple // scratch for a gathered columnar row
}

// errArgNode makes eval fall back to the row-at-a-time evaluation, which
// reports the node's own error.
var errArgNode = errors.New("core: argument node failed")

// eval writes the arguments of rows [lo, hi) of pt to out, row-major: row
// lo+n's slot j at n*len(slots)+j. On an error it evaluates the chunk
// again row-major with EvalRange, so the error it returns, with its row's
// offset from lo, is the one row-at-a-time evaluation reports.
func (a *argEval) eval(pt *aggPart, lo, hi int, out []rangeval.V) (int, error) {
	ns := len(a.slots)
	for j := range a.slots {
		if err := a.node(a.slots[j].eval, pt, lo, hi, out[j:], ns, 0); err != nil {
			return a.rowMajor(pt, lo, hi, out)
		}
	}
	return 0, nil
}

func (a *argEval) rowMajor(pt *aggPart, lo, hi int, out []rangeval.V) (int, error) {
	ns := len(a.slots)
	for i := lo; i < hi; i++ {
		row := a.tuple(pt, i)
		for j := range a.slots {
			v, err := a.slots[j].eval.EvalRange(row)
			if err != nil {
				return i - lo, fmt.Errorf("core: aggregate %s: %w", a.slots[j].name, err)
			}
			out[(i-lo)*ns+j] = v
		}
	}
	return 0, nil
}

// tuple returns row i of pt: a row part's stored tuple, which is only
// read, or a columnar row gathered into the evaluator's own scratch.
func (a *argEval) tuple(pt *aggPart, i int) rangeval.Tuple {
	if !pt.columnar {
		return pt.rows[i].Vals
	}
	a.row = a.row[:0]
	for _, c := range pt.cols {
		a.row = append(a.row, c.At(i))
	}
	return a.row
}

// node writes e's value for row lo+n of pt to out[n*stride], for every
// row in [lo, hi).
func (a *argEval) node(e expr.Expr, pt *aggPart, lo, hi int, out []rangeval.V, stride, depth int) error {
	switch x := e.(type) {
	case expr.Attr:
		for i := lo; i < hi; i++ {
			if x.Idx < 0 || (pt.columnar && x.Idx >= len(pt.cols)) || (!pt.columnar && x.Idx >= len(pt.rows[i].Vals)) {
				return errArgNode
			}
			out[(i-lo)*stride] = pt.val(x.Idx, i)
		}
	case expr.Const:
		v := rangeval.Certain(x.V)
		for n := range hi - lo {
			out[n*stride] = v
		}
	case expr.Arith:
		if err := a.node(x.L, pt, lo, hi, out, stride, depth+1); err != nil {
			return err
		}
		for len(a.tmp) <= depth {
			a.tmp = append(a.tmp, make([]rangeval.V, aggChunk))
		}
		r := a.tmp[depth][:hi-lo]
		if err := a.node(x.R, pt, lo, hi, r, 1, depth+1); err != nil {
			return err
		}
		for n := range r {
			v, err := expr.RangeArith(x.Op, out[n*stride], r[n])
			if err != nil {
				return err
			}
			out[n*stride] = v
		}
	default:
		for i := lo; i < hi; i++ {
			v, err := e.EvalRange(a.tuple(pt, i))
			if err != nil {
				return err
			}
			out[(i-lo)*stride] = v
		}
	}
	return nil
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
