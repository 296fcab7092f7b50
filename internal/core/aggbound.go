package core

import (
	"cmp"
	"math"
	"slices"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// boundCols holds the ⊛ bounds (Definition 23) of the walk's
// contributions, one column per slot, by walk index, and the
// contributions whose ⊛ failed: the walk reports such an error at the
// contribution's position, if it gives it a target.
type boundCols struct {
	cols []boundCol
	errs []foldErr // by walk index, ascending once sorted
}

func newBoundCols(slots, n int) *boundCols {
	b := &boundCols{cols: make([]boundCol, slots)}
	for j := range b.cols {
		b.cols[j].n = n
	}
	return b
}

// set computes the ⊛ bounds of slot j (monoid mo) of the contribution at
// index i, of multiplicity m and argument v, or the point x when v is nil.
// Float and int arguments take starFloat and starInt; anything else, or a
// product they cannot hold, takes starBounds. On an error it records it
// at i and returns false.
func (b *boundCols) set(i, j int, mo aggMonoid, m *Mult, v *rangeval.V, x types.Value) bool {
	c := &b.cols[j]
	vlo, vhi := x, x
	if v != nil {
		vlo, vhi = v.Lo, v.Hi
	}
	switch lk, hk := vlo.Kind(), vhi.Kind(); {
	case lk == types.KindFloat && hk == types.KindFloat:
		if lo, hi, ok := mo.starFloat(m, vlo.AsFloat(), vhi.AsFloat()); ok {
			c.putFloat(i, lo, hi)
			return true
		}
	case lk == types.KindInt && hk == types.KindInt:
		if lo, hi, ok := mo.starInt(m, vlo.AsInt(), vhi.AsInt()); ok {
			c.putInt(i, lo, hi)
			return true
		}
	}
	if v == nil {
		p := rangeval.Certain(x)
		v = &p
	}
	lo, hi, err := mo.starBounds(m, v)
	if err != nil {
		b.errs = append(b.errs, foldErr{at: i, err: err})
		return false
	}
	c.put(i, lo, hi)
	return true
}

// sortErrs orders the errors by walk index. keepBlock records them in
// input order.
func (b *boundCols) sortErrs() {
	slices.SortFunc(b.errs, func(x, y foldErr) int { return cmp.Compare(x.at, y.at) })
}

// colKind is how a bound column stores its bounds.
type colKind uint8

const (
	colEmpty colKind = iota // no bound stored yet
	colFloat                // every bound a float: flo, fhi
	colInt                  // every bound an int: ilo, ihi
	colValue                // any other mix: vlo, vhi
)

// boundCol is one slot's lower and upper ⊛ bounds at n walk indices. It
// stays typed while every bound stored has one numeric kind, and spills
// to types.Value at the first bound of another: a bound reads back as the
// value stored, bit for bit.
type boundCol struct {
	kind     colKind
	n        int
	flo, fhi []float64
	ilo, ihi []int64
	vlo, vhi []types.Value
}

func (c *boundCol) putFloat(i int, lo, hi float64) {
	switch c.kind {
	case colEmpty:
		c.kind, c.flo, c.fhi = colFloat, make([]float64, c.n), make([]float64, c.n)
	case colFloat:
	default:
		c.spill()
		c.vlo[i], c.vhi[i] = types.Float(lo), types.Float(hi)
		return
	}
	c.flo[i], c.fhi[i] = lo, hi
}

func (c *boundCol) putInt(i int, lo, hi int64) {
	switch c.kind {
	case colEmpty:
		c.kind, c.ilo, c.ihi = colInt, make([]int64, c.n), make([]int64, c.n)
	case colInt:
	default:
		c.spill()
		c.vlo[i], c.vhi[i] = types.Int(lo), types.Int(hi)
		return
	}
	c.ilo[i], c.ihi[i] = lo, hi
}

func (c *boundCol) put(i int, lo, hi types.Value) {
	switch {
	case lo.Kind() == types.KindFloat && hi.Kind() == types.KindFloat:
		c.putFloat(i, lo.AsFloat(), hi.AsFloat())
	case lo.Kind() == types.KindInt && hi.Kind() == types.KindInt:
		c.putInt(i, lo.AsInt(), hi.AsInt())
	default:
		c.spill()
		c.vlo[i], c.vhi[i] = lo, hi
	}
}

// spill turns the column into values, each typed bound stored so far
// becoming the value it came from.
func (c *boundCol) spill() {
	if c.kind == colValue {
		return
	}
	c.vlo, c.vhi = make([]types.Value, c.n), make([]types.Value, c.n)
	for i := range c.n {
		switch c.kind {
		case colFloat:
			c.vlo[i], c.vhi[i] = types.Float(c.flo[i]), types.Float(c.fhi[i])
		case colInt:
			c.vlo[i], c.vhi[i] = types.Int(c.ilo[i]), types.Int(c.ihi[i])
		}
	}
	c.kind, c.flo, c.fhi, c.ilo, c.ihi = colValue, nil, nil, nil, nil
}

// at returns the bound of side dir (-1 lower, +1 upper) at index i.
func (c *boundCol) at(dir, i int) types.Value {
	switch c.kind {
	case colFloat:
		if dir < 0 {
			return types.Float(c.flo[i])
		}
		return types.Float(c.fhi[i])
	case colInt:
		if dir < 0 {
			return types.Int(c.ilo[i])
		}
		return types.Int(c.ihi[i])
	}
	if dir < 0 {
		return c.vlo[i]
	}
	return c.vhi[i]
}

// fold folds the bounds of side dir at indices [a, b) into *acc with
// plusBound, each first clamped to mo's neutral element when clamp is set
// (clampBound): the same operations on the same operands, in the same
// order (foldCol). It returns the index of a failing step and its error.
func (c *boundCol) fold(mo aggMonoid, dir int, clamp bool, acc *types.Value, a, b int) (int, error) {
	var i int
	var err error
	switch c.kind {
	case colFloat:
		xs := c.flo
		if dir > 0 {
			xs = c.fhi
		}
		i, err = foldCol(mo, dir, clamp, acc, xs[a:b], nil, nil)
	case colInt:
		xs := c.ilo
		if dir > 0 {
			xs = c.ihi
		}
		i, err = foldCol(mo, dir, clamp, acc, nil, xs[a:b], nil)
	default:
		vs := c.vlo
		if dir > 0 {
			vs = c.vhi
		}
		i, err = foldCol(mo, dir, clamp, acc, nil, nil, vs[a:b])
	}
	return a + i, err
}

// foldCol folds the bounds of side dir held by exactly one of fs, is and
// vs into *acc with plusBound, each first clamped when clamp is set. Typed
// bounds fold in a typed loop (foldFloats, foldInts) as long as the
// accumulator allows, and through types.Value from the first step that
// loop does not take. It returns the index of a failing step and its
// error, or the number of bounds.
func foldCol(mo aggMonoid, dir int, clamp bool, acc *types.Value, fs []float64, is []int64, vs []types.Value) (int, error) {
	i, n := 0, len(vs)
	switch {
	case fs != nil:
		i, n = foldFloats(mo, dir, clamp, acc, fs), len(fs)
	case is != nil:
		i, n = foldInts(mo, dir, clamp, acc, is), len(is)
	}
	for ; i < n; i++ {
		var x types.Value
		switch {
		case fs != nil:
			x = types.Float(fs[i])
		case is != nil:
			x = types.Int(is[i])
		default:
			x = vs[i]
		}
		if clamp {
			x = mo.clampBound(x, dir)
		}
		var err error
		if *acc, err = mo.plusBound(*acc, x, dir); err != nil {
			return i, err
		}
	}
	return n, nil
}

// clampNoop reports whether clamping to mo's neutral element turns every
// bound of side dir into that element, which +_M then leaves out: MIN's
// upper bounds (+inf) and MAX's lower ones (-inf).
func clampNoop(mo aggMonoid, dir int, clamp bool) bool {
	return clamp && (mo == monoidMin && dir > 0 || mo == monoidMax && dir < 0)
}

// foldFloats folds float bounds xs into *acc as fold would, and returns
// how many it folded: all of them, none when *acc is of a kind it does
// not take, or those up to a sum that turned NaN. SUM follows types.Add:
// an int sum takes a bound clamped to the neutral Int(0) and stays that
// int, and turns into float64(sum)+x at the first float; a float sum
// adds each bound, a clamped one as +0. MIN and MAX follow types.Min and
// types.Max from their neutral sentinel or a float.
func foldFloats(mo aggMonoid, dir int, clamp bool, acc *types.Value, xs []float64) int {
	n := len(xs)
	if n == 0 || clampNoop(mo, dir, clamp) {
		return n
	}
	// Clamped, a float bound x stays itself where these hold, and becomes
	// Int(0) elsewhere (x >= 0 for a lower bound, !(x > 0) for an upper:
	// -0 and NaN compare as types.Compare does).
	var f float64
	switch k := acc.Kind(); {
	case k == types.KindFloat:
		f = acc.AsFloat()
	case mo == monoidSum && k == types.KindInt:
		i := 0
		for clamp && i < len(xs) && (dir < 0 && xs[i] >= 0 || dir > 0 && !(xs[i] > 0)) {
			i++
		}
		if i == n {
			return n
		}
		f = float64(acc.AsInt()) + xs[i]
		xs = xs[i+1:]
	case k == mo.neutral().Kind():
		f, xs = xs[0], xs[1:]
	default:
		return 0
	}
	// A sum stops at a NaN: which payload NaN + NaN keeps depends on the
	// order the compiler gives the operands, so from there on plusBound
	// adds, through types.Add like the contribution-at-a-time fold.
	i := 0
	switch {
	case mo == monoidMin:
		f, i = minOf(f, xs), len(xs)
	case mo == monoidMax:
		f, i = maxOf(f, xs), len(xs)
	case !clamp:
		for ; i < len(xs) && !math.IsNaN(f); i++ {
			f += xs[i]
		}
	case dir < 0:
		for ; i < len(xs) && !math.IsNaN(f); i++ {
			x := xs[i]
			if x >= 0 {
				x = 0
			}
			f += x
		}
	default:
		for ; i < len(xs) && !math.IsNaN(f); i++ {
			x := xs[i]
			if !(x > 0) {
				x = 0
			}
			f += x
		}
	}
	*acc = types.Float(f)
	return n - len(xs) + i
}

// foldInts is foldFloats for int bounds. A bound clamps to min(0, x) or
// max(0, x). An int sum stops before a step that leaves int64, which
// saturates (plusBound) on the types.Value path.
func foldInts(mo aggMonoid, dir int, clamp bool, acc *types.Value, xs []int64) int {
	n := len(xs)
	if n == 0 || clampNoop(mo, dir, clamp) {
		return n
	}
	k := acc.Kind()
	switch {
	case mo != monoidSum && k == types.KindInt:
		if mo == monoidMin {
			*acc = types.Int(minOf(acc.AsInt(), xs))
		} else {
			*acc = types.Int(maxOf(acc.AsInt(), xs))
		}
	case mo != monoidSum && k == mo.neutral().Kind():
		if mo == monoidMin {
			*acc = types.Int(minOf(xs[0], xs[1:]))
		} else {
			*acc = types.Int(maxOf(xs[0], xs[1:]))
		}
	case mo != monoidSum:
		return 0
	case k == types.KindFloat:
		f := acc.AsFloat()
		for _, x := range xs {
			if clamp {
				x = clampInt(x, dir)
			}
			f += float64(x)
		}
		*acc = types.Float(f)
	case k == types.KindInt:
		s := acc.AsInt()
		for i, x := range xs {
			if clamp {
				x = clampInt(x, dir)
			}
			t := s + x
			if (t^s)&(t^x) < 0 {
				*acc = types.Int(s)
				return i
			}
			s = t
		}
		*acc = types.Int(s)
	default:
		return 0
	}
	return n
}

// clampInt is clampBound on an int bound of side dir.
func clampInt(x int64, dir int) int64 {
	if dir < 0 {
		return min(0, x)
	}
	return max(0, x)
}

// minOf folds xs into f with types.Min's rule: the later operand only
// when it compares smaller.
func minOf[T int64 | float64](f T, xs []T) T {
	for _, x := range xs {
		if cmp.Compare(f, x) > 0 {
			f = x
		}
	}
	return f
}

// maxOf folds xs into f with types.Max's rule.
func maxOf[T int64 | float64](f T, xs []T) T {
	for _, x := range xs {
		if cmp.Compare(f, x) < 0 {
			f = x
		}
	}
	return f
}
