package core

import (
	"math"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/types"
)

// directFold is one span's scratch for folding a chunk (foldChunk): the
// chunk's rows of the span's groups, ordered by group and in input order
// within one, and the typed ⊛ of one group's rows. Every buffer is sized
// by a chunk.
type directFold struct {
	// Per local group, in first-seen order: its group, whether its rows
	// may take the typed fold, and the end of its rows in rows.
	grp   []int32
	typed []bool
	end   []int32
	rows  []int32
	// most is the most rows a local group has. For one slot of one
	// group's n rows: the ⊛ of their SGs, then their lower and then their
	// upper ⊛ bounds, 3n values in f or in i; and, per slot, the group's
	// accumulators before that slot was folded.
	most  int
	f     []float64
	i     []int64
	saved []types.Value
}

func newDirectFold(slots int) directFold {
	n := expr.RangeChunk
	return directFold{rows: make([]int32, n), saved: make([]types.Value, 3*slots)}
}

// foldChunk folds the rows of chunk ch, with arguments in lanes, that
// belong to the groups of span s. It sorts them by group, keeping their
// order, and folds a group's rows slot by slot through the typed fold
// (foldTyped) when every one of them may take it: the group folds
// directly and has no SG error, and the row is a point row whose
// multiplicity is certainly positive. Any other group's rows go through
// foldRow in input order. Each accumulator thus receives the operands it
// received row by row, in the same order. When no group folds directly,
// every row goes through foldRow, unsorted.
func (k *aggKernel) foldChunk(s Span, ch argChunk, lanes []expr.Lane, sf *spanFold, p *ctxpoll.Poll, direct *foldErr) error {
	n := ch.hi - ch.lo
	if !k.anyDirect {
		for o := range n {
			if err := p.Due(); err != nil {
				return err
			}
			if r := ch.base + ch.lo + o; int(k.gs.grp[r]) >= s.Lo && int(k.gs.grp[r]) < s.Hi {
				m := ch.pt.mult(ch.lo + o)
				k.foldRow(r, &m, lanes, o, sf, direct)
			}
		}
		return nil
	}
	d := &sf.direct
	d.grp, d.typed, d.end = d.grp[:0], d.typed[:0], d.end[:0]
	for o := range n {
		if err := p.Due(); err != nil {
			return err
		}
		r := ch.base + ch.lo + o
		g := k.gs.grp[r]
		if int(g) < s.Lo || int(g) >= s.Hi {
			continue
		}
		l := k.local[g]
		if l < 0 {
			l = int32(len(d.grp))
			k.local[g] = l
			d.grp = append(d.grp, g)
			d.typed = append(d.typed, k.direct[g] && k.sgErr[g] == nil)
			d.end = append(d.end, 0)
		}
		m := ch.pt.mult(ch.lo + o)
		if m.Lo <= 0 || m.SG == 0 || k.gs.rank[r] < 0 {
			d.typed[l] = false
		}
		d.end[l]++
	}
	at := int32(0)
	d.most = 0
	for l, c := range d.end {
		d.end[l] = at
		at, d.most = at+c, max(d.most, int(c))
	}
	for o, g := range k.gs.grp[ch.base+ch.lo : ch.base+ch.hi] {
		if int(g) >= s.Lo && int(g) < s.Hi {
			l := k.local[g]
			d.rows[d.end[l]] = int32(o)
			d.end[l]++
		}
	}
	start := int32(0)
	for l, g := range d.grp {
		k.local[g] = -1
		rs := d.rows[start:d.end[l]]
		start = d.end[l]
		if d.typed[l] && k.foldTyped(int(g), ch, rs, lanes, d) {
			continue
		}
		for _, o := range rs {
			m := ch.pt.mult(ch.lo + int(o))
			k.foldRow(ch.base+ch.lo+int(o), &m, lanes, int(o), sf, direct)
		}
	}
	return nil
}

// foldTyped folds rows rs of chunk ch, with arguments in lanes, into group
// g, which folds directly, slot by slot: each row's ⊛ of its SG and its ⊛
// bounds (Definition 23) into typed scratch, then each of the slot's three
// accumulators in one pass of the walk's fold (foldStars). A slot whose
// values are not all of one numeric kind, whose int ⊛ leaves int64 or
// whose int SG sum might (sumFits), or whose fold fails, puts back every
// accumulator folded into, and foldTyped returns false: foldRow then folds
// the rows and reports the error as it always has.
func (k *aggKernel) foldTyped(g int, ch argChunk, rs []int32, lanes []expr.Lane, d *directFold) bool {
	ns, n := len(k.slots), len(rs)
	sg, acc := k.sg[ns*g:ns*(g+1)], k.acc[2*ns*g:2*ns*(g+1)]
	for j := range k.slots {
		mo, l := k.slots[j].monoid, &lanes[j]
		x, lo, hi := sg[j], acc[2*j], acc[2*j+1]
		ok := false
		switch l.SG[rs[0]].Kind() {
		case types.KindFloat:
			d.f = grow(d.f, 3*n, 3*d.most)
			ok = starFloats(mo, l, ch, rs, d.f) && foldStars(mo, &x, &lo, &hi, d.f, nil, n)
		case types.KindInt:
			d.i = grow(d.i, 3*n, 3*d.most)
			ok = starInts(mo, l, ch, rs, d.i) &&
				(mo != monoidSum || x.Kind() != types.KindInt || sumFits(x.AsInt(), d.i[:n])) &&
				foldStars(mo, &x, &lo, &hi, nil, d.i, n)
		}
		if !ok {
			for i := range j {
				sg[i], acc[2*i], acc[2*i+1] = d.saved[3*i], d.saved[3*i+1], d.saved[3*i+2]
			}
			return false
		}
		if j+1 < ns { // a later slot may fail and put this one back
			d.saved[3*j], d.saved[3*j+1], d.saved[3*j+2] = sg[j], acc[2*j], acc[2*j+1]
		}
		sg[j], acc[2*j], acc[2*j+1] = x, lo, hi
	}
	ms := &k.mults[g]
	for _, o := range rs {
		m := ch.pt.mult(ch.lo + int(o))
		ms.add(&m, true)
	}
	return true
}

// foldStars folds one slot's typed ⊛ of n rows — their SGs, then their
// lower and then their upper bounds, 3n values in fs or in is — into x, lo
// and hi, unclamped (foldCol). The SG folds as a lower bound: plusBound
// adds as plus does except where an int sum leaves int64, which sumFits
// rules out. It reports whether every step succeeded.
func foldStars(mo aggMonoid, x, lo, hi *types.Value, fs []float64, is []int64, n int) bool {
	var e1, e2, e3 error
	if fs != nil {
		_, e1 = foldCol(mo, -1, false, x, fs[:n], nil, nil)
		_, e2 = foldCol(mo, -1, false, lo, fs[n:2*n], nil, nil)
		_, e3 = foldCol(mo, 1, false, hi, fs[2*n:3*n], nil, nil)
	} else {
		_, e1 = foldCol(mo, -1, false, x, nil, is[:n], nil)
		_, e2 = foldCol(mo, -1, false, lo, nil, is[n:2*n], nil)
		_, e3 = foldCol(mo, 1, false, hi, nil, is[2*n:3*n], nil)
	}
	return e1 == nil && e2 == nil && e3 == nil
}

// grow returns buf with room for n values, reusing it when it has room
// and otherwise making room for at least most and twice its own.
func grow[T int64 | float64](buf []T, n, most int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, most, 2*cap(buf)))
	}
	return buf[:n]
}

// starFloats writes, for rows rs of chunk ch, with arguments in lane l, the ⊛
// of each row's SG and its ⊛ bounds (starFloat) to xs[:n], xs[n:2n] and
// xs[2n:], n = len(rs). It returns false at a row whose values are not
// all floats.
func starFloats(mo aggMonoid, l *expr.Lane, ch argChunk, rs []int32, xs []float64) bool {
	n := len(rs)
	sgs, los, his := xs[:n], xs[n:2*n], xs[2*n:]
	for x, o := range rs {
		m := ch.pt.mult(ch.lo + int(o))
		v := &l.SG[o]
		if v.Kind() != types.KindFloat {
			return false
		}
		f := v.AsFloat()
		if mo == monoidSum {
			sgs[x] = float64(m.SG) * f
		} else {
			sgs[x] = f
		}
		e := l.Exc[o]
		if e < 0 && m.Lo == m.SG && m.SG == m.Hi {
			los[x], his[x] = sgs[x], sgs[x]
			continue
		}
		vlo, vhi := f, f
		if e >= 0 {
			t := &l.Tri[e]
			if t.Lo.Kind() != types.KindFloat || t.Hi.Kind() != types.KindFloat {
				return false
			}
			vlo, vhi = t.Lo.AsFloat(), t.Hi.AsFloat()
		}
		var ok bool
		if los[x], his[x], ok = mo.starFloat(&m, vlo, vhi); !ok {
			return false
		}
	}
	return true
}

// starInts is starFloats for int values (starInt). It also returns false
// at a product that leaves int64.
func starInts(mo aggMonoid, l *expr.Lane, ch argChunk, rs []int32, xs []int64) bool {
	n := len(rs)
	sgs, los, his := xs[:n], xs[n:2*n], xs[2*n:]
	for x, o := range rs {
		m := ch.pt.mult(ch.lo + int(o))
		v := &l.SG[o]
		if v.Kind() != types.KindInt {
			return false
		}
		sgs[x] = v.AsInt()
		if mo == monoidSum {
			p, err := types.Mul(types.Int(m.SG), *v)
			if err != nil {
				return false
			}
			sgs[x] = p.AsInt()
		}
		e := l.Exc[o]
		if e < 0 && m.Lo == m.SG && m.SG == m.Hi {
			los[x], his[x] = sgs[x], sgs[x]
			continue
		}
		vlo, vhi := v.AsInt(), v.AsInt()
		if e >= 0 {
			t := &l.Tri[e]
			if t.Lo.Kind() != types.KindInt || t.Hi.Kind() != types.KindInt {
				return false
			}
			vlo, vhi = t.Lo.AsInt(), t.Hi.AsInt()
		}
		var ok bool
		if los[x], his[x], ok = mo.starInt(&m, vlo, vhi); !ok {
			return false
		}
	}
	return true
}

// sumFits reports whether s plus any prefix of xs stays in int64: the sum
// of their magnitudes does.
func sumFits(s int64, xs []int64) bool {
	t := absU(s)
	for _, x := range xs {
		if t += absU(x); t > math.MaxInt64 {
			return false
		}
	}
	return true
}

func absU(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}
