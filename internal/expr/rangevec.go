package expr

import (
	"fmt"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// Range-vector evaluation: EvalRange's semantics (Definition 9) over the
// rangeval.Col columns of a columnar batch, one node at a time over a
// chunk of rows instead of one row at a time over the whole tree. It is
// the one column-at-a-time evaluator: a certain cell is a point, kept as
// one value, so a flat column and an uncertain one take the same program.
//
//   - Value nodes (Attr, Const, Arith, If, NAry) produce the values of the
//     chunk's live rows. A leaf reads its column in place: a flat column
//     as a lane of points, a dense one as its triples; a constant is
//     broadcast. Every other value node writes a Lane: each row's SG
//     value, plus the triple of each row that is not a point by
//     representation (isPoint). So a certain row costs one 32 B value per
//     node, not a 96 B triple.
//   - Add, Sub and Mul of two point rows apply pointArith to their values,
//     the operation RangeArith's own point shortcut applies; every other
//     row applies RangeArith to its operands in place. Div applies
//     RangeArith to every row.
//   - Boolean nodes (Cmp, Logic, Not, IsNull) write one Truth per row,
//     exactly TruthOf the range boolean their EvalRange returns. A row
//     whose operands are points gets a point truth, its three truths
//     equal, from one deterministic test: pointCmp compares two non-null
//     points once, IS NULL tests a point's value, and a connective or NOT
//     of point truths is a point truth under RangeLogic and RangeNot
//     themselves. The rest are exceptions: rows with an operand that is
//     not a point, and comparisons with a null, which take the rule
//     function (two certain nulls compare as (F,F,T)).
//   - A value node read as a boolean goes through TruthOf, and a boolean
//     node read as a value through Truth.V, as in EvalRange; a point stays
//     a point either way.
//
// Every node applies the same rule function its EvalRange applies
// (RangeCmp, RangeLogic, RangeNot, RangeIsNull, RangeArith, RangeNAry,
// RangeIf), or a point rule proven equal to it on points, and a point
// stored as its value reads back as the same triple, so the two agree bit
// for bit. Every node is evaluated on exactly the rows EvalRange
// evaluates it on: If partitions the live rows into certainly true,
// certainly false and uncertain, runs Then on the first and third and
// Else on the second and third, and Logic evaluates both operands as
// EvalRange does. So the program fails whenever EvalRange fails on some
// live row, and otherwise returns its values. On an error the caller
// re-evaluates the chunk row by row through the canonical kernel, which
// reports the reference executor's row-order error.
//
// Temporaries are sized to the chunk, grown up to RangeChunk rows, and
// shared by the nodes of a tree depth; each is allocated on first use and
// reused after. Programs compiled together by CompileRanges share them
// too. A RangeProg is not safe for concurrent use; each operator instance
// or worker compiles its own.

// RangeChunk is how many physical rows a RangeProg evaluates at a time.
// Aggregation evaluates its arguments in chunks of it.
const RangeChunk = 256

// RangeProg is a compiled range-vector program over rangeval.Col columns.
type RangeProg struct {
	root *rnode
	s    *rscratch
}

// rscratch is the temporaries of the programs compiled together, which
// run one after another.
type rscratch struct {
	frames []rframe // per tree depth
	seq    []int    // the identity offsets [0, RangeChunk)
	live   []int    // a chunk's live rows as offsets from its base
	conv   rframe   // the root's conversion buffers
}

// rnode is one expression node and its depth in the tree.
type rnode struct {
	e     Expr
	kids  []*rnode
	depth int
}

// rframe holds the temporaries of the nodes at one depth. A node writes
// its result to a buffer its parent passes (a frame one level up, or the
// root's), and its operands to its own frame, so the operands of a node
// survive while its siblings' subtrees run deeper.
type rframe struct {
	l, r   Lane    // operand values
	cv     Lane    // a child value node read as a boolean
	t      []Truth // an operand's or a condition's truths
	ct     []Truth // a child boolean node read as a value
	tu, fu []int   // If: the live rows Then and Else run on
}

// Lane is a chunk of range values stored as points with exceptions. SG
// holds every row's selected-guess value, which is the row's value when
// the row is a point by representation (its three components the same
// bits). Exc marks the rows that are not: Exc[o] >= 0 is the index of row
// o's triple in Tri, and Exc[o] < 0 for a point.
type Lane struct {
	SG  []types.Value
	Exc []int32
	Tri []rangeval.V
}

// Reset readies l for n rows, reusing its buffers: SG and Exc of length
// n, Tri empty.
func (l *Lane) Reset(n int) {
	if cap(l.SG) < n {
		c := max(n, min(2*cap(l.SG), RangeChunk))
		l.SG, l.Exc = make([]types.Value, c), make([]int32, c)
	}
	l.SG, l.Exc, l.Tri = l.SG[:n], l.Exc[:n], l.Tri[:0]
}

// Set writes v as row o. The triple of a row that is not a point is
// appended, never written over another, so a node may fold a Lane into
// itself row by row.
func (l *Lane) Set(o int, v *rangeval.V) {
	l.SG[o] = v.SG
	if isPoint(v) {
		l.Exc[o] = -1
		return
	}
	l.Exc[o] = int32(len(l.Tri))
	l.Tri = append(l.Tri, *v)
}

// At returns row o's value.
func (l *Lane) At(o int) rangeval.V {
	if e := l.Exc[o]; e >= 0 {
		return l.Tri[e]
	}
	return rangeval.Certain(l.SG[o])
}

// vals returns l as a node result.
func (l *Lane) vals() rvals { return rvals{pts: l.SG, exc: l.Exc, tri: l.Tri} }

// holds reports whether r was written to l.
func (l *Lane) holds(r *rvals) bool {
	return len(r.pts) > 0 && len(l.SG) > 0 && &r.pts[0] == &l.SG[0]
}

// put writes row o of r to l. A row that is not a point is read in
// place, never lifted, so ptr needs no scratch.
func (l *Lane) put(o int, r *rvals) {
	if x, ok := r.point(o); ok {
		l.SG[o], l.Exc[o] = x, -1
		return
	}
	l.Set(o, r.ptr(o, nil))
}

// CompileRange compiles e for range-vector evaluation. ok is false when
// e contains an Expr implementation outside this package's nine node
// types; the caller must then evaluate per row.
func CompileRange(e Expr) (*RangeProg, bool) {
	ps, ok := CompileRanges([]Expr{e})
	if !ok {
		return nil, false
	}
	return ps[0], true
}

// CompileRanges compiles es as programs that share their temporaries: they
// may run one after another, never at once. ok is as for CompileRange,
// for every expression.
func CompileRanges(es []Expr) ([]*RangeProg, bool) {
	s := &rscratch{}
	depth := 0
	ps := make([]*RangeProg, len(es))
	for i, e := range es {
		root, ok := compileRange(e, 0, &depth)
		if !ok {
			return nil, false
		}
		ps[i] = &RangeProg{root: root, s: s}
	}
	s.frames = make([]rframe, depth+1)
	return ps, true
}

func compileRange(e Expr, depth int, maxDepth *int) (*rnode, bool) {
	*maxDepth = max(*maxDepth, depth)
	n := &rnode{e: e, depth: depth}
	var kids []Expr
	switch t := e.(type) {
	case Const, Attr:
	case Logic:
		kids = []Expr{t.L, t.R}
	case Not:
		kids = []Expr{t.E}
	case Cmp:
		kids = []Expr{t.L, t.R}
	case Arith:
		kids = []Expr{t.L, t.R}
	case If:
		kids = []Expr{t.Cond, t.Then, t.Else}
	case IsNull:
		kids = []Expr{t.E}
	case NAry:
		kids = t.Args
	default:
		return nil, false
	}
	for _, k := range kids {
		kn, ok := compileRange(k, depth+1, maxDepth)
		if !ok {
			return nil, false
		}
		n.kids = append(n.kids, kn)
	}
	return n, true
}

// TruthInto evaluates the program as a predicate over cols — one column
// per attribute, each of n physical rows — at the live rows (all of
// [0, n) when live is nil), writing each live row's condition into out at
// its physical index: TruthOf of what EvalRange returns for the row. out
// must have length at least n; dead slots are left untouched. On error
// the contents of out are unspecified.
func (p *RangeProg) TruthInto(cols []rangeval.Col, n int, live []int, out []Truth) error {
	for base, j := 0, 0; base < n; base += RangeChunk {
		w := rwin{cols: cols, base: base, end: min(base+RangeChunk, n)}
		offs := p.offsets(&w, live, &j)
		if len(offs) == 0 {
			continue
		}
		if err := p.truths(p.root, &w, offs, out[base:w.end], &p.s.conv); err != nil {
			return err
		}
	}
	return nil
}

// EvalLane evaluates the program over the live rows of [lo, hi), at most
// RangeChunk rows of cols: live holds their physical indexes in
// ascending order, or is nil when every row is live. It writes row lo+o's
// value — what EvalRange returns for it — to row o of out, which is Reset
// to hi-lo rows first; the rows that are not live are left unspecified.
// On error the contents of out are unspecified.
func (p *RangeProg) EvalLane(cols []rangeval.Col, lo, hi int, live []int, out *Lane) error {
	w := rwin{cols: cols, base: lo, end: hi}
	j := 0
	offs := p.offsets(&w, live, &j)
	r, err := p.vals(p.root, &w, offs, out, &p.s.conv)
	if err != nil || out.holds(&r) {
		return err
	}
	// A leaf: its column or constant, copied.
	out.Reset(hi - lo)
	for _, o := range offs {
		out.put(o, &r)
	}
	return nil
}

// rwin is the chunk being evaluated: physical rows [base, end) of cols.
type rwin struct {
	cols      []rangeval.Col
	base, end int
}

// offsets returns the live rows of w as offsets from w.base, advancing *j
// past them in live.
func (p *RangeProg) offsets(w *rwin, live []int, j *int) []int {
	s := p.s
	if s.seq == nil {
		s.seq = make([]int, RangeChunk)
		for i := range s.seq {
			s.seq[i] = i
		}
	}
	if live == nil {
		return s.seq[:w.end-w.base]
	}
	s.live = grow(&s.live, w.end-w.base)[:0]
	for ; *j < len(live) && live[*j] < w.end; *j++ {
		s.live = append(s.live, live[*j]-w.base)
	}
	return s.live
}

// rvals is a value node's result over a chunk, indexed by offset: a lane
// (pts, with exc and tri as in Lane; a flat column is a lane with exc
// nil), a dense vector of triples, or, when both pts and dense are nil,
// the broadcast constant c, a point.
type rvals struct {
	pts   []types.Value
	exc   []int32
	tri   []rangeval.V
	dense []rangeval.V
	c     rangeval.V
}

func (r *rvals) at(o int) rangeval.V {
	switch {
	case r.dense != nil:
		return r.dense[o]
	case r.pts == nil:
		return r.c
	case r.exc != nil && r.exc[o] >= 0:
		return r.tri[r.exc[o]]
	}
	return rangeval.Certain(r.pts[o])
}

// ptr returns a pointer to row o's value: into the vector, the
// exceptions or the constant, or, for a point of a lane, to tmp holding
// it lifted to [v/v/v].
func (r *rvals) ptr(o int, tmp *rangeval.V) *rangeval.V {
	switch {
	case r.dense != nil:
		return &r.dense[o]
	case r.pts == nil:
		return &r.c
	case r.exc != nil && r.exc[o] >= 0:
		return &r.tri[r.exc[o]]
	}
	*tmp = rangeval.Certain(r.pts[o])
	return tmp
}

// point returns row o's value and true when row o is a point.
func (r *rvals) point(o int) (types.Value, bool) {
	switch {
	case r.dense != nil:
		return r.dense[o].SG, isPoint(&r.dense[o])
	case r.pts == nil:
		return r.c.SG, true
	}
	return r.pts[o], r.exc == nil || r.exc[o] < 0
}

// grow returns *b with length n, reallocating it when it is too short:
// to n, or to twice its capacity up to RangeChunk if that is more.
func grow[T any](b *[]T, n int) []T {
	if cap(*b) < n {
		*b = make([]T, max(n, min(2*cap(*b), RangeChunk)))
	}
	*b = (*b)[:n]
	return *b
}

// vals evaluates the value of n at the live offsets of w. A result the
// node computes is written to dst; a leaf returns a view of its column or
// constant instead. conv is the frame whose conversion buffers n may use:
// its parent's, or the root's.
func (p *RangeProg) vals(n *rnode, w *rwin, live []int, dst *Lane, conv *rframe) (rvals, error) {
	f := &p.s.frames[n.depth]
	nw := w.end - w.base
	switch t := n.e.(type) {
	case Attr:
		if t.Idx < 0 || t.Idx >= len(w.cols) {
			return rvals{}, fmt.Errorf("expr: attribute %s(#%d) out of range (arity %d)", t.Name, t.Idx, len(w.cols))
		}
		c := w.cols[t.Idx]
		if c.IsFlat() {
			return rvals{pts: c.Flat[w.base:w.end]}, nil
		}
		return rvals{dense: c.Dense[w.base:w.end]}, nil

	case Const:
		return rvals{c: rangeval.Certain(t.V)}, nil

	case Arith:
		l, err := p.vals(n.kids[0], w, live, &f.l, f)
		if err != nil {
			return rvals{}, err
		}
		r, err := p.vals(n.kids[1], w, live, &f.r, f)
		if err != nil {
			return rvals{}, err
		}
		dst.Reset(nw)
		var la, ra rangeval.V
		for _, o := range live {
			if t.Op != OpDiv {
				if x, ok := l.point(o); ok {
					if y, ok := r.point(o); ok {
						v, err := pointArith(t.Op, x, y)
						if err != nil {
							return rvals{}, err
						}
						dst.SG[o], dst.Exc[o] = v, -1
						continue
					}
				}
			}
			v, err := RangeArith(t.Op, l.ptr(o, &la), r.ptr(o, &ra))
			if err != nil {
				return rvals{}, err
			}
			dst.Set(o, &v)
		}
		return dst.vals(), nil

	case If:
		cond := grow(&f.t, nw)
		if err := p.truths(n.kids[0], w, live, cond, f); err != nil {
			return rvals{}, err
		}
		tu, fu := grow(&f.tu, nw)[:0], grow(&f.fu, nw)[:0]
		for _, o := range live {
			if cond[o].Hi {
				tu = append(tu, o)
			}
			if !cond[o].Lo {
				fu = append(fu, o)
			}
		}
		var tv, ev rvals
		var err error
		if len(tu) > 0 {
			if tv, err = p.vals(n.kids[1], w, tu, &f.l, f); err != nil {
				return rvals{}, err
			}
		}
		if len(fu) > 0 {
			if ev, err = p.vals(n.kids[2], w, fu, &f.r, f); err != nil {
				return rvals{}, err
			}
		}
		dst.Reset(nw)
		for _, o := range live {
			switch c := cond[o]; {
			case c.Lo:
				dst.put(o, &tv)
			case !c.Hi:
				dst.put(o, &ev)
			default:
				v := RangeIf(c.SG, tv.at(o), ev.at(o))
				dst.Set(o, &v)
			}
		}
		return dst.vals(), nil

	case NAry:
		if len(n.kids) == 0 {
			return rvals{}, fmt.Errorf("expr: %s of zero arguments", t.opName())
		}
		acc, err := p.vals(n.kids[0], w, live, dst, f)
		if err != nil {
			return rvals{}, err
		}
		for _, k := range n.kids[1:] {
			v, err := p.vals(k, w, live, &f.l, f)
			if err != nil {
				return rvals{}, err
			}
			// The fold runs in place once acc is dst: Set appends the
			// triples it writes, so row o's old triple is read first.
			if !dst.holds(&acc) {
				dst.Reset(nw)
			}
			for _, o := range live {
				x := RangeNAry(t.Op, acc.at(o), v.at(o))
				dst.Set(o, &x)
			}
			acc = dst.vals()
		}
		return acc, nil
	}

	// A boolean node read as a value.
	ts := grow(&conv.ct, nw)
	if err := p.truths(n, w, live, ts, f); err != nil {
		return rvals{}, err
	}
	dst.Reset(nw)
	for _, o := range live {
		if t := ts[o]; t.Lo == t.Hi {
			dst.SG[o], dst.Exc[o] = types.Bool(t.SG), -1
			continue
		}
		v := ts[o].V()
		dst.Set(o, &v)
	}
	return dst.vals(), nil
}

// truths evaluates n as a boolean at the live offsets of w, writing each
// row's truths to dst. conv is as for vals.
func (p *RangeProg) truths(n *rnode, w *rwin, live []int, dst []Truth, conv *rframe) error {
	f := &p.s.frames[n.depth]
	switch t := n.e.(type) {
	case Cmp:
		l, err := p.vals(n.kids[0], w, live, &f.l, f)
		if err != nil {
			return err
		}
		r, err := p.vals(n.kids[1], w, live, &f.r, f)
		if err != nil {
			return err
		}
		var la, ra rangeval.V
		for _, o := range live {
			if x, ok := l.point(o); ok {
				if y, ok := r.point(o); ok {
					dst[o] = pointCmp(t.Op, x, y)
					continue
				}
			}
			dst[o] = RangeCmp(t.Op, l.ptr(o, &la), r.ptr(o, &ra))
		}
		return nil

	case Logic:
		if err := p.truths(n.kids[0], w, live, dst, f); err != nil {
			return err
		}
		r := grow(&f.t, w.end-w.base)
		if err := p.truths(n.kids[1], w, live, r, f); err != nil {
			return err
		}
		for _, o := range live {
			dst[o] = RangeLogic(t.Op, dst[o], r[o])
		}
		return nil

	case Not:
		if err := p.truths(n.kids[0], w, live, dst, f); err != nil {
			return err
		}
		for _, o := range live {
			dst[o] = RangeNot(dst[o])
		}
		return nil

	case IsNull:
		v, err := p.vals(n.kids[0], w, live, &f.l, f)
		if err != nil {
			return err
		}
		for _, o := range live {
			if x, ok := v.point(o); ok {
				dst[o] = pointTruth(x.IsNull())
				continue
			}
			dst[o] = RangeIsNull(v.at(o))
		}
		return nil
	}

	// A value node read as a boolean.
	v, err := p.vals(n, w, live, &conv.cv, conv)
	if err != nil {
		return err
	}
	for _, o := range live {
		if x, ok := v.point(o); ok {
			dst[o] = pointTruth(truth(x))
			continue
		}
		dst[o] = TruthOf(v.at(o))
	}
	return nil
}
