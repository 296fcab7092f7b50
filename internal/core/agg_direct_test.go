package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// directFoldBoth folds in twice, a chunk at a time: kernel typed folds
// each group's rows of a chunk with foldTyped, and through foldRow where
// foldTyped declines, which must leave the group as it found it; kernel
// rows folds every row with foldRow in input order. It returns both and
// how many (chunk, group) pairs foldTyped took and declined.
func directFoldBoth(t *testing.T, in *AggInput, groupBy []int, slots []slot) (typed, rows *aggKernel, took, declined int) {
	t.Helper()
	ctx := context.Background()
	gs, err := groupRows(in, groupBy, 0, ctxpoll.New(ctx))
	if err != nil {
		t.Fatal(err)
	}
	kernel := func() *aggKernel {
		k, err := newAggKernel(in, groupBy, slots, gs, 0, ctxpoll.New(ctx))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	typed, rows = kernel(), kernel()
	ns := len(slots)
	ev := newArgPrograms(slots)
	lanes := make([]expr.Lane, ns)
	sf := spanFold{direct: newDirectFold(ns), args: make([]rangeval.V, ns), star: make([]types.Value, 2*ns)}
	var typedErr, rowsErr foldErr
	base := 0
	for pi := range in.parts {
		pt := &in.parts[pi]
		for lo := 0; lo < pt.n; lo += expr.RangeChunk {
			ch := argChunk{pt: pt, lo: lo, hi: min(lo+expr.RangeChunk, pt.n), base: base}
			if _, err := ev.eval(pt, ch.lo, ch.hi, lanes); err != nil {
				t.Fatal(err)
			}
			byGroup := map[int][]int32{}
			var order []int
			for o := range ch.hi - ch.lo {
				r := base + lo + o
				m := pt.mult(lo + o)
				rows.foldRow(r, &m, lanes, o, &sf, &rowsErr)
				g := int(gs.grp[r])
				if _, ok := byGroup[g]; !ok {
					order = append(order, g)
				}
				byGroup[g] = append(byGroup[g], int32(o))
			}
			for _, g := range order {
				rs := byGroup[g]
				eligible := typed.direct[g] && typed.sgErr[g] == nil
				for _, o := range rs {
					m := pt.mult(lo + int(o))
					eligible = eligible && m.Lo > 0 && m.SG != 0
				}
				before := kernelState(typed, g)
				if eligible && typed.foldTyped(g, ch, rs, lanes, &sf.direct) {
					took++
					continue
				}
				if eligible {
					declined++
					if after := kernelState(typed, g); after != before {
						t.Fatalf("group %d: foldTyped declined but changed the group from\n%s\nto\n%s", g, before, after)
					}
				}
				for _, o := range rs {
					m := pt.mult(lo + int(o))
					typed.foldRow(base+lo+int(o), &m, lanes, int(o), &sf, &typedErr)
				}
			}
		}
		base += pt.n
	}
	if typedErr != rowsErr {
		t.Fatalf("direct fold errors %v and %v differ", typedErr, rowsErr)
	}
	return typed, rows, took, declined
}

// kernelState renders group g's accumulators, annotation sums and SG error
// with every value's kind and bits.
func kernelState(k *aggKernel, g int) string {
	var sb strings.Builder
	ns := len(k.slots)
	for _, x := range append(append([]types.Value(nil), k.sg[ns*g:ns*(g+1)]...), k.acc[2*ns*g:2*ns*(g+1)]...) {
		fmt.Fprintf(&sb, "%v:%v:%x ", x, x.Kind(), math.Float64bits(x.AsFloat()))
	}
	fmt.Fprintf(&sb, "%v %v", k.mults[g], k.sgErr[g])
	return sb.String()
}

// directCase builds a relation (g, a) over three certain keys in which
// every row folds directly: a is a(i) and the multiplicity m(i).
func directCase(n int, a func(i int) rangeval.V, m func(i int) Mult) *Relation {
	r := New(schema.New("g", "a"))
	for i := range n {
		r.Add(Tuple{Vals: rangeval.Tuple{civ(int64(i % 3)), a(i)}, M: m(i)})
	}
	return r
}

// TestDirectFoldMatchesRowFold: the typed direct fold (foldTyped) leaves
// every group exactly as foldRow does row by row — SG results, bounds,
// annotation sums and SG errors, bit for bit — for sum, min, max, count
// and avg over floats (with -0, NaN payloads, infinities and ranges), ints
// (with ranges and products and sums that leave int64), a slot that is
// int in one chunk and float in the next, and uncertain but positive
// multiplicities; and where it declines, it stores nothing. It also runs
// on the FuzzAgg seeds of the direct fold.
func TestDirectFoldMatchesRowFold(t *testing.T) {
	f, i := types.Float, types.Int
	nanA, nanB := f(math.Float64frombits(0x7ff8000000000001)), f(math.Float64frombits(0xfff8000000000000))
	floats := []types.Value{f(0.5), f(math.Copysign(0, -1)), f(2.25), nanA, f(-1.5), nanB, f(math.Inf(1)), f(1e308), f(-3)}
	ints := []types.Value{i(3), i(-4), i(0), i(9), i(1 << 40), i(-7)}
	mults := []Mult{One, {2, 3, 5}, {1, 2, 2}, {3, 3, 3}, One, One}
	ranged := func(vals []types.Value, every int, lo, hi types.Value) func(int) rangeval.V {
		return func(x int) rangeval.V {
			v := vals[x%len(vals)]
			if x%every != 0 || v.Kind() == types.KindFloat && math.IsNaN(v.AsFloat()) {
				return rangeval.Certain(v)
			}
			l, _ := types.Add(v, lo)
			h, _ := types.Add(v, hi)
			return rangeval.New(l, v, h)
		}
	}
	one := func(int) Mult { return One }
	cases := []struct {
		name     string
		rel      *Relation
		declines bool // some group's rows must go through foldRow
	}{
		{"floats", directCase(600, ranged(floats, 5, f(-1), f(1)), func(x int) Mult { return mults[x%len(mults)] }), false},
		{"negative zero first", directCase(7, func(x int) rangeval.V { return rangeval.Certain(floats[1+x%2]) }, one), false},
		{"ints", directCase(600, ranged(ints, 4, i(-2), i(3)), func(x int) Mult { return mults[x%len(mults)] }), false},
		{"int sum leaves int64", directCase(300, func(x int) rangeval.V {
			if x%3 == 0 {
				return rangeval.Certain(i(math.MaxInt64/4 + int64(x)))
			}
			return rangeval.Certain(i(int64(x)))
		}, one), true},
		{"int product leaves int64", directCase(40, func(x int) rangeval.V {
			if x == 9 {
				return rangeval.Certain(i(1 << 62))
			}
			return rangeval.Certain(i(1 << 40))
		}, func(x int) Mult {
			if x == 9 {
				return Mult{1, 2, 2}
			}
			return One
		}), true},
		{"int then float", directCase(700, func(x int) rangeval.V {
			if x < expr.RangeChunk {
				return rangeval.Certain(ints[x%len(ints)])
			}
			return rangeval.Certain(floats[x%len(floats)])
		}, one), false},
		{"int and float in one chunk", directCase(30, func(x int) rangeval.V {
			if x == 20 {
				return rangeval.Certain(f(1.5))
			}
			return rangeval.Certain(i(int64(x)))
		}, one), true},
	}
	a := expr.Col(1, "a")
	specs := []ra.AggSpec{
		{Fn: ra.AggSum, Arg: a, Name: "s"},
		{Fn: ra.AggMin, Arg: a, Name: "lo"},
		{Fn: ra.AggMax, Arg: a, Name: "hi"},
		{Fn: ra.AggCount, Arg: a, Name: "c"},
		{Fn: ra.AggAvg, Arg: a, Name: "m"},
	}
	_, slots, err := planAggs(specs)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(t *testing.T, in *AggInput, groupBy []int, slots []slot, takes, declines bool) {
		typed, rows, took, declined := directFoldBoth(t, in, groupBy, slots)
		for g := range typed.gs.gbox {
			if got, want := kernelState(typed, g), kernelState(rows, g); got != want {
				t.Errorf("group %d: typed fold\n%s\nrow fold\n%s", g, got, want)
			}
		}
		if takes != (took > 0) || declines != (declined > 0) {
			t.Errorf("foldTyped took %d and declined %d groups of chunks; want takes %v, declines %v", took, declined, takes, declines)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sparse := c.rel.Clone()
			sparse.Compact(StoragePolicy{})
			for _, in := range []*AggInput{aggInputOf(c.rel), aggInputOf(sparse)} {
				compare(t, in, []int{0}, slots, true, c.declines)
			}
			checkAggRelation(t, c.rel, []int{0}, specs, 1)
		})
	}
	// Per seed: whether foldTyped takes some group and declines some.
	seeds := map[string][2]bool{
		"seed-direct-int-overflow":  {false, true},
		"seed-direct-nan-payloads":  {true, false},
		"seed-direct-negzero-first": {true, false},
		"seed-direct-kind-switch":   {true, false},
		"seed-direct-maybe-rows":    {true, false},
		"seed-direct-string-minmax": {true, true},
	}
	for name, want := range seeds {
		t.Run(name, func(t *testing.T) {
			in, groupBy, specs := decodeAggInput(readAggSeed(t, name))
			_, slots, err := planAggs(specs)
			if err != nil {
				t.Fatal(err)
			}
			compare(t, aggInputOf(in), groupBy, slots, want[0], want[1])
		})
	}
}
