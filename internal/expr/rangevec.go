package expr

import (
	"fmt"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// Range-vector evaluation: EvalRange's semantics (Definition 9) over the
// rangeval.Col columns of a columnar batch, one node at a time over a
// chunk of rows instead of one row at a time over the whole tree.
//
//   - Value nodes (Attr, Const, Arith, If, NAry) produce a vector of range
//     values. A leaf reads its column in place: a dense column is aliased,
//     a flat one is lifted to [v/v/v] on read, a constant is broadcast.
//   - Boolean nodes (Cmp, Logic, Not, IsNull) produce a vector of Truth:
//     three truth lanes per row, exactly TruthOf the range boolean their
//     EvalRange returns.
//   - A value node read as a boolean goes through TruthOf, and a boolean
//     node read as a value through Truth.V, as in EvalRange.
//
// Every node applies the same rule function its EvalRange applies
// (RangeCmp, RangeLogic, RangeNot, RangeIsNull, RangeArith, RangeNAry,
// RangeIf), so the two agree bit for bit. Every node is evaluated on
// exactly the rows EvalRange evaluates it on: If partitions the live rows
// into certainly true, certainly false and uncertain, runs Then on the
// first and third and Else on the second and third, and Logic evaluates
// both operands as EvalRange does. So the program fails whenever
// EvalRange fails on some live row, and otherwise returns its values. On
// an error the caller re-evaluates the batch row by row through the
// canonical kernel, which reports the reference executor's row-order
// error.
//
// Temporaries are sized to rangeChunk rows and shared by the nodes of a
// tree depth; each is allocated on first use and reused after. A
// RangeProg is not safe for concurrent use; each operator instance
// compiles its own.

// rangeChunk is how many physical rows a RangeProg evaluates at a time,
// as core's aggregation evaluates its arguments in chunks of aggChunk.
const rangeChunk = 256

// RangeProg is a compiled range-vector program over rangeval.Col columns.
type RangeProg struct {
	root   *rnode
	frames []rframe     // scratch per tree depth
	seq    []int        // the identity offsets [0, rangeChunk)
	live   []int        // a chunk's live rows as offsets from its base
	dst    []rangeval.V // EvalInto's output window for the chunk
	conv   rframe       // the root's conversion buffers
}

// rnode is one expression node and its depth in the tree.
type rnode struct {
	e     Expr
	kids  []*rnode
	depth int
}

// rframe holds the temporaries of the nodes at one depth. A node writes
// its result to a buffer its parent passes (a frame one level up, or the
// caller's output), and its operands to its own frame, so the operands of
// a node survive while its siblings' subtrees run deeper.
type rframe struct {
	v1, v2 []rangeval.V // operand values
	cv     []rangeval.V // a child value node read as a boolean
	t      []Truth      // an operand's or a condition's truths
	ct     []Truth      // a child boolean node read as a value
	tu, fu []int        // If: the live rows Then and Else run on
}

// CompileRange compiles e for range-vector evaluation. ok is false when
// e contains an Expr implementation outside this package's nine node
// types; the caller must then evaluate per row.
func CompileRange(e Expr) (*RangeProg, bool) {
	depth := 0
	root, ok := compileRange(e, 0, &depth)
	if !ok {
		return nil, false
	}
	return &RangeProg{root: root, frames: make([]rframe, depth+1)}, true
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
	for base, j := 0, 0; base < n; base += rangeChunk {
		w := rwin{cols: cols, base: base, end: min(base+rangeChunk, n)}
		offs := p.offsets(&w, live, &j)
		if len(offs) == 0 {
			continue
		}
		if err := p.truths(p.root, &w, offs, out[base:w.end], &p.conv); err != nil {
			return err
		}
	}
	return nil
}

// EvalInto evaluates the program over cols at the live rows (all of
// [0, n) when live is nil), writing each live row's value — what
// EvalRange returns for it — into out at its physical index. out must
// have length at least n; dead slots are left untouched. On error the
// contents of out are unspecified.
func (p *RangeProg) EvalInto(cols []rangeval.Col, n int, live []int, out []rangeval.V) error {
	for base, j := 0, 0; base < n; base += rangeChunk {
		w := rwin{cols: cols, base: base, end: min(base+rangeChunk, n)}
		offs := p.offsets(&w, live, &j)
		if len(offs) == 0 {
			continue
		}
		p.dst = out[base:w.end]
		r, err := p.vals(p.root, &w, offs, &p.dst, &p.conv)
		if err != nil {
			return err
		}
		if !r.in(p.dst) {
			for _, o := range offs {
				p.dst[o] = r.at(o)
			}
		}
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
	if p.seq == nil {
		p.seq = make([]int, rangeChunk)
		for i := range p.seq {
			p.seq[i] = i
		}
		p.live = make([]int, 0, rangeChunk)
	}
	if live == nil {
		return p.seq[:w.end-w.base]
	}
	p.live = p.live[:0]
	for ; *j < len(live) && live[*j] < w.end; *j++ {
		p.live = append(p.live, live[*j]-w.base)
	}
	return p.live
}

// rvals is a value node's result over a chunk, indexed by offset: a dense
// vector, a flat vector lifted on read, or a broadcast constant.
type rvals struct {
	dense []rangeval.V
	flat  []types.Value
	c     rangeval.V
}

func (r *rvals) at(o int) rangeval.V {
	switch {
	case r.dense != nil:
		return r.dense[o]
	case r.flat != nil:
		return rangeval.Certain(r.flat[o])
	}
	return r.c
}

// ptr returns a pointer to row o's value: into the vector or the
// constant, or to tmp holding a flat value lifted to [v/v/v].
func (r *rvals) ptr(o int, tmp *rangeval.V) *rangeval.V {
	switch {
	case r.dense != nil:
		return &r.dense[o]
	case r.flat != nil:
		*tmp = rangeval.Certain(r.flat[o])
		return tmp
	}
	return &r.c
}

// in reports whether r is the buffer buf.
func (r *rvals) in(buf []rangeval.V) bool {
	return len(r.dense) > 0 && len(buf) > 0 && &r.dense[0] == &buf[0]
}

// chunkV returns the value buffer *b, allocating it on first use.
func chunkV(b *[]rangeval.V) []rangeval.V {
	if *b == nil {
		*b = make([]rangeval.V, rangeChunk)
	}
	return *b
}

// chunkT returns the truth buffer *b, allocating it on first use.
func chunkT(b *[]Truth) []Truth {
	if *b == nil {
		*b = make([]Truth, rangeChunk)
	}
	return *b
}

// chunkIdx returns the index buffer *b emptied, allocating it on first
// use.
func chunkIdx(b *[]int) []int {
	if *b == nil {
		*b = make([]int, 0, rangeChunk)
	}
	return (*b)[:0]
}

// vals evaluates the value of n at the live offsets of w. A result the
// node computes is written to *dst (allocated on first use); a leaf
// returns a view of its column or constant instead. conv is the frame
// whose conversion buffers n may use: its parent's, or the root's.
func (p *RangeProg) vals(n *rnode, w *rwin, live []int, dst *[]rangeval.V, conv *rframe) (rvals, error) {
	f := &p.frames[n.depth]
	switch t := n.e.(type) {
	case Attr:
		if t.Idx < 0 || t.Idx >= len(w.cols) {
			return rvals{}, fmt.Errorf("expr: attribute %s(#%d) out of range (arity %d)", t.Name, t.Idx, len(w.cols))
		}
		c := w.cols[t.Idx]
		if c.IsFlat() {
			return rvals{flat: c.Flat[w.base:w.end]}, nil
		}
		return rvals{dense: c.Dense[w.base:w.end]}, nil

	case Const:
		return rvals{c: rangeval.Certain(t.V)}, nil

	case Arith:
		l, err := p.vals(n.kids[0], w, live, dst, f)
		if err != nil {
			return rvals{}, err
		}
		r, err := p.vals(n.kids[1], w, live, &f.v1, f)
		if err != nil {
			return rvals{}, err
		}
		out := chunkV(dst)
		for _, o := range live {
			v, err := RangeArith(t.Op, l.at(o), r.at(o))
			if err != nil {
				return rvals{}, err
			}
			out[o] = v
		}
		return rvals{dense: out}, nil

	case If:
		cond := chunkT(&f.t)
		if err := p.truths(n.kids[0], w, live, cond, f); err != nil {
			return rvals{}, err
		}
		tu, fu := chunkIdx(&f.tu), chunkIdx(&f.fu)
		for _, o := range live {
			c := ifCond(cond[o])
			if c.Hi {
				tu = append(tu, o)
			}
			if !c.Lo {
				fu = append(fu, o)
			}
		}
		var tv, ev rvals
		var err error
		if len(tu) > 0 {
			if tv, err = p.vals(n.kids[1], w, tu, dst, f); err != nil {
				return rvals{}, err
			}
		}
		if len(fu) > 0 {
			if ev, err = p.vals(n.kids[2], w, fu, &f.v1, f); err != nil {
				return rvals{}, err
			}
		}
		out := chunkV(dst)
		for _, o := range live {
			switch c := ifCond(cond[o]); {
			case c.Lo:
				out[o] = tv.at(o)
			case !c.Hi:
				out[o] = ev.at(o)
			default:
				out[o] = RangeIf(c.SG, tv.at(o), ev.at(o))
			}
		}
		return rvals{dense: out}, nil

	case NAry:
		if len(n.kids) == 0 {
			return rvals{}, fmt.Errorf("expr: %s of zero arguments", t.opName())
		}
		acc, err := p.vals(n.kids[0], w, live, dst, f)
		if err != nil {
			return rvals{}, err
		}
		for _, k := range n.kids[1:] {
			v, err := p.vals(k, w, live, &f.v1, f)
			if err != nil {
				return rvals{}, err
			}
			out := chunkV(dst)
			for _, o := range live {
				out[o] = RangeNAry(t.Op, acc.at(o), v.at(o))
			}
			acc = rvals{dense: out}
		}
		return acc, nil
	}

	// A boolean node read as a value.
	ts := chunkT(&conv.ct)
	if err := p.truths(n, w, live, ts, f); err != nil {
		return rvals{}, err
	}
	out := chunkV(dst)
	for _, o := range live {
		out[o] = ts[o].V()
	}
	return rvals{dense: out}, nil
}

// truths evaluates n as a boolean at the live offsets of w, writing each
// row's truths to dst. conv is as for vals.
func (p *RangeProg) truths(n *rnode, w *rwin, live []int, dst []Truth, conv *rframe) error {
	f := &p.frames[n.depth]
	switch t := n.e.(type) {
	case Cmp:
		l, err := p.vals(n.kids[0], w, live, &f.v1, f)
		if err != nil {
			return err
		}
		r, err := p.vals(n.kids[1], w, live, &f.v2, f)
		if err != nil {
			return err
		}
		var la, ra rangeval.V
		for _, o := range live {
			dst[o] = RangeCmp(t.Op, l.ptr(o, &la), r.ptr(o, &ra))
		}
		return nil

	case Logic:
		if err := p.truths(n.kids[0], w, live, dst, f); err != nil {
			return err
		}
		r := chunkT(&f.t)
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
		v, err := p.vals(n.kids[0], w, live, &f.v1, f)
		if err != nil {
			return err
		}
		for _, o := range live {
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
		dst[o] = TruthOf(v.at(o))
	}
	return nil
}
