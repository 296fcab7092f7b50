package expr

import (
	"fmt"

	"github.com/audb/audb/internal/types"
)

// Column-at-a-time evaluation for the pipelined executor's vectorized
// kernels. A Prog walks the expression tree once per batch, each node
// producing a whole vector of deterministic values over the live rows of
// flat (certain, null-free) input columns before its parent consumes
// them — the tight slice loops the CPU can prefetch — instead of
// re-walking the tree per row.
//
// The semantics replicate Expr.Eval exactly, per row:
//
//   - Logic evaluates both sides eagerly where Eval short-circuits. That
//     is unobservable here: compilation requires CertainFastSafe, whose
//     Logic case demands an error-free right operand, and the connective's
//     value depends only on both truth values.
//   - If partitions the live rows by the condition's truth and evaluates
//     each branch only on its own partition, preserving Eval's
//     one-branch-per-row discipline (a guarded division never sees the
//     rows its guard excludes).
//   - Any error aborts the batch. The caller re-evaluates the batch
//     row-at-a-time through the canonical per-row kernel, which both
//     reproduces the exact row-order error the reference executor reports
//     and makes the vectorized evaluation order unobservable.
//
// A Prog owns reusable buffers and is not safe for concurrent use; each
// operator instance compiles its own.

// Prog is a compiled column-at-a-time program over flat input columns.
type Prog struct {
	root  *vnode
	attrs []int
	bufs  [][]types.Value
	idxs  [][]int
	seq   []int
}

// vnode mirrors one expression node with its buffer slot assignments.
type vnode struct {
	e            Expr
	kids         []*vnode
	slot         int // value-buffer slot; -1 for leaves
	liveT, liveF int // If partition scratch slots; -1 otherwise
}

// CompileVec compiles e for vectorized evaluation over certain, null-free
// flat columns. ok is false when e is outside the CertainFastSafe subset
// (or uses a form the vectorized evaluator does not support); the caller
// must then use the range-vector program (CompileRange).
func CompileVec(e Expr) (*Prog, bool) {
	if !CertainFastSafe(e) {
		return nil, false
	}
	p := &Prog{}
	var nSlots, nIdx int
	root, ok := compileVec(e, &nSlots, &nIdx)
	if !ok {
		return nil, false
	}
	p.root = root
	p.attrs = Attrs(e)
	p.bufs = make([][]types.Value, nSlots)
	p.idxs = make([][]int, nIdx)
	return p, true
}

func compileVec(e Expr, nSlots, nIdx *int) (*vnode, bool) {
	n := &vnode{e: e, slot: -1, liveT: -1, liveF: -1}
	slot := func() {
		n.slot = *nSlots
		*nSlots++
	}
	kids := func(es ...Expr) bool {
		for _, k := range es {
			kn, ok := compileVec(k, nSlots, nIdx)
			if !ok {
				return false
			}
			n.kids = append(n.kids, kn)
		}
		return true
	}
	switch t := e.(type) {
	case Const, Attr:
		return n, true
	case Logic:
		if !kids(t.L, t.R) {
			return nil, false
		}
		slot()
	case Not:
		if !kids(t.E) {
			return nil, false
		}
		slot()
	case Cmp:
		if !kids(t.L, t.R) {
			return nil, false
		}
		slot()
	case Arith:
		if !kids(t.L, t.R) {
			return nil, false
		}
		slot()
	case If:
		if !kids(t.Cond, t.Then, t.Else) {
			return nil, false
		}
		slot()
		n.liveT, n.liveF = *nIdx, *nIdx+1
		*nIdx += 2
	case IsNull:
		if !kids(t.E) {
			return nil, false
		}
		slot()
	case NAry:
		// Zero-argument least/greatest always errors; leave it to the
		// per-row path so the canonical error surfaces.
		if len(t.Args) == 0 {
			return nil, false
		}
		if !kids(t.Args...) {
			return nil, false
		}
		slot()
	default:
		return nil, false
	}
	return n, true
}

// Attrs returns the attribute indexes the program reads (first-seen
// order). The caller must supply a non-nil flat column for each.
func (p *Prog) Attrs() []int { return p.attrs }

// vres is one node's result: either a vector valid at the live physical
// indexes, or a broadcast constant.
type vres struct {
	col     []types.Value
	cv      types.Value
	isConst bool
}

func (r vres) at(i int) types.Value {
	if r.isConst {
		return r.cv
	}
	return r.col[i]
}

// SelectInto evaluates the program as a predicate over cols — one slice
// per attribute, indexed by physical row in [0, n) — at the live indexes
// (all of [0, n) when live is nil) and appends the indexes where it holds
// to out. On error, out is unchanged and the caller must re-evaluate the
// batch per row.
func (p *Prog) SelectInto(cols [][]types.Value, n int, live []int, out []int) ([]int, error) {
	if live == nil {
		live = p.ascending(n)
	}
	p.grow(n)
	r, err := p.eval(p.root, cols, live)
	if err != nil {
		return out, err
	}
	for _, i := range live {
		if truth(r.at(i)) {
			out = append(out, i)
		}
	}
	return out, nil
}

// EvalInto evaluates the program over cols at the live indexes (all of
// [0, n) when live is nil), writing each row's value into out at its
// physical index. out must have length at least n; dead slots are left
// untouched.
func (p *Prog) EvalInto(cols [][]types.Value, n int, live []int, out []types.Value) error {
	if live == nil {
		live = p.ascending(n)
	}
	p.grow(n)
	r, err := p.eval(p.root, cols, live)
	if err != nil {
		return err
	}
	for _, i := range live {
		out[i] = r.at(i)
	}
	return nil
}

// ascending returns the cached identity selection [0, n).
func (p *Prog) ascending(n int) []int {
	for len(p.seq) < n {
		p.seq = append(p.seq, len(p.seq))
	}
	return p.seq[:n]
}

// grow sizes every value buffer to at least n physical slots.
func (p *Prog) grow(n int) {
	for s := range p.bufs {
		if len(p.bufs[s]) < n {
			p.bufs[s] = make([]types.Value, n)
		}
	}
}

func (p *Prog) eval(n *vnode, cols [][]types.Value, live []int) (vres, error) {
	switch t := n.e.(type) {
	case Const:
		return vres{cv: t.V, isConst: true}, nil

	case Attr:
		if t.Idx < 0 || t.Idx >= len(cols) || cols[t.Idx] == nil {
			return vres{}, fmt.Errorf("expr: vectorized attribute %s(#%d) unavailable", t.Name, t.Idx)
		}
		return vres{col: cols[t.Idx]}, nil

	case Logic:
		l, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		r, err := p.eval(n.kids[1], cols, live)
		if err != nil {
			return vres{}, err
		}
		out := p.bufs[n.slot]
		if t.Op == OpAnd {
			for _, i := range live {
				out[i] = types.Bool(truth(l.at(i)) && truth(r.at(i)))
			}
		} else {
			for _, i := range live {
				out[i] = types.Bool(truth(l.at(i)) || truth(r.at(i)))
			}
		}
		return vres{col: out}, nil

	case Not:
		v, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		out := p.bufs[n.slot]
		for _, i := range live {
			out[i] = types.Bool(!truth(v.at(i)))
		}
		return vres{col: out}, nil

	case Cmp:
		l, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		r, err := p.eval(n.kids[1], cols, live)
		if err != nil {
			return vres{}, err
		}
		out := p.bufs[n.slot]
		op := t.Op
		for _, i := range live {
			lv, rv := l.at(i), r.at(i)
			if lv.IsNull() || rv.IsNull() {
				// SQL-style, as in Cmp.Eval: null comparisons do not hold.
				out[i] = types.Bool(false)
				continue
			}
			cmp := types.Compare(lv, rv)
			var b bool
			switch op {
			case OpEq:
				b = cmp == 0
			case OpNeq:
				b = cmp != 0
			case OpLt:
				b = cmp < 0
			case OpLeq:
				b = cmp <= 0
			case OpGt:
				b = cmp > 0
			case OpGeq:
				b = cmp >= 0
			}
			out[i] = types.Bool(b)
		}
		return vres{col: out}, nil

	case Arith:
		l, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		r, err := p.eval(n.kids[1], cols, live)
		if err != nil {
			return vres{}, err
		}
		out := p.bufs[n.slot]
		op := t.Op
		for _, i := range live {
			var v types.Value
			var err error
			switch op {
			case OpAdd:
				v, err = types.Add(l.at(i), r.at(i))
			case OpSub:
				v, err = types.Sub(l.at(i), r.at(i))
			case OpMul:
				v, err = types.Mul(l.at(i), r.at(i))
			default:
				v, err = types.Div(l.at(i), r.at(i))
			}
			if err != nil {
				return vres{}, err
			}
			out[i] = v
		}
		return vres{col: out}, nil

	case If:
		c, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		liveT := p.idxs[n.liveT][:0]
		liveF := p.idxs[n.liveF][:0]
		for _, i := range live {
			if truth(c.at(i)) {
				liveT = append(liveT, i)
			} else {
				liveF = append(liveF, i)
			}
		}
		p.idxs[n.liveT], p.idxs[n.liveF] = liveT, liveF
		out := p.bufs[n.slot]
		if len(liveT) > 0 {
			tv, err := p.eval(n.kids[1], cols, liveT)
			if err != nil {
				return vres{}, err
			}
			for _, i := range liveT {
				out[i] = tv.at(i)
			}
		}
		if len(liveF) > 0 {
			ev, err := p.eval(n.kids[2], cols, liveF)
			if err != nil {
				return vres{}, err
			}
			for _, i := range liveF {
				out[i] = ev.at(i)
			}
		}
		return vres{col: out}, nil

	case IsNull:
		v, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		out := p.bufs[n.slot]
		for _, i := range live {
			out[i] = types.Bool(v.at(i).IsNull())
		}
		return vres{col: out}, nil

	case NAry:
		acc, err := p.eval(n.kids[0], cols, live)
		if err != nil {
			return vres{}, err
		}
		out := p.bufs[n.slot]
		for _, i := range live {
			out[i] = acc.at(i)
		}
		for _, k := range n.kids[1:] {
			v, err := p.eval(k, cols, live)
			if err != nil {
				return vres{}, err
			}
			if t.Op == OpLeast {
				for _, i := range live {
					out[i] = types.Min(out[i], v.at(i))
				}
			} else {
				for _, i := range live {
					out[i] = types.Max(out[i], v.at(i))
				}
			}
		}
		return vres{col: out}, nil
	}
	return vres{}, fmt.Errorf("expr: vectorized eval: unknown node %T", n.e)
}
