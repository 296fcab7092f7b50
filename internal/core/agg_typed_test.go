package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// q1Input is TPC-H Q1's lineitem columns after its filter, as columnar
// storage: (l_returnflag, l_linestatus, l_quantity, l_extendedprice,
// l_discount, l_tax) over n rows. With certainKeys false, a third of the
// cells are uncertain: a flag or status range spans its whole domain, so
// every group's box is widened and every row is kept and walked; a
// measure range is a few percent wide; one row in ten may be filtered out
// (multiplicity (0,1,1)). With certainKeys true, every flag and status is
// certain (flat columns), 16 % of the measure cells are ranges and every
// multiplicity is One, so every row folds directly.
func q1Input(n int, certainKeys bool) (*Relation, []int, []ra.AggSpec, schema.Schema) {
	rng := rand.New(rand.NewSource(41))
	r := New(schema.New("rf", "ls", "qty", "price", "disc", "tax"))
	key := func(dom []string) rangeval.V {
		v := types.String(dom[rng.Intn(len(dom))])
		if !certainKeys && rng.Intn(3) == 0 {
			return rangeval.New(types.String(dom[0]), v, types.String(dom[len(dom)-1]))
		}
		return rangeval.Certain(v)
	}
	num := func(x types.Value, lo, hi types.Value) rangeval.V {
		if certainKeys && rng.Intn(100) < 16 || !certainKeys && rng.Intn(3) == 0 {
			return rangeval.New(lo, x, hi)
		}
		return rangeval.Certain(x)
	}
	for range n {
		q := int64(1 + rng.Intn(50))
		p := float64(900+rng.Intn(100000)) / 10
		d := float64(rng.Intn(11)) / 100
		t := float64(rng.Intn(9)) / 100
		m := One
		if !certainKeys && rng.Intn(10) == 0 {
			m = Mult{Lo: 0, SG: 1, Hi: 1}
		}
		r.Add(Tuple{Vals: rangeval.Tuple{
			key([]string{"A", "N", "R"}), key([]string{"F", "O"}),
			num(types.Int(q), types.Int(q-2), types.Int(q+3)),
			num(types.Float(p), types.Float(p*0.97), types.Float(p*1.02)),
			num(types.Float(d), types.Float(d/2), types.Float(d+0.01)),
			num(types.Float(t), types.Float(t/2), types.Float(t+0.01)),
		}, M: m})
	}
	r.Compact(StoragePolicy{})
	qty, price, disc, tax := expr.Col(2, "qty"), expr.Col(3, "price"), expr.Col(4, "disc"), expr.Col(5, "tax")
	discPrice := expr.Mul(price, expr.Sub(expr.CInt(1), disc))
	specs := []ra.AggSpec{
		{Fn: ra.AggSum, Arg: qty, Name: "sum_qty"},
		{Fn: ra.AggSum, Arg: price, Name: "sum_base_price"},
		{Fn: ra.AggSum, Arg: discPrice, Name: "sum_disc_price"},
		{Fn: ra.AggSum, Arg: expr.Mul(discPrice, expr.Add(expr.CInt(1), tax)), Name: "sum_charge"},
		{Fn: ra.AggAvg, Arg: qty, Name: "avg_qty"},
		{Fn: ra.AggAvg, Arg: price, Name: "avg_price"},
		{Fn: ra.AggAvg, Arg: disc, Name: "avg_disc"},
		{Fn: ra.AggCount, Name: "count_order"},
	}
	names := []string{"rf", "ls"}
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return r, []int{0, 1}, specs, schema.New(names...)
}

// aggSink keeps the benchmark's result live.
var aggSink *Relation

// BenchmarkAggUncertainKeys is Q1's aggregation (six slots) over 4,000
// rows whose group keys widen every group, so every row is kept and
// walked into all six groups, serially.
//
//	go test ./internal/core -run '^$' -bench BenchmarkAggUncertainKeys -benchmem
func BenchmarkAggUncertainKeys(b *testing.B) {
	benchAggQ1(b, 4000, false)
}

// BenchmarkAggCertainKeys is Q1's aggregation over 8,000 rows with flat,
// certain group keys, 16 % uncertain measure cells and multiplicity One,
// serially: every row folds directly into one of six certain groups.
//
//	go test ./internal/core -run '^$' -bench BenchmarkAggCertainKeys -benchmem
func BenchmarkAggCertainKeys(b *testing.B) {
	benchAggQ1(b, 8000, true)
}

func benchAggQ1(b *testing.B, rows int, certainKeys bool) {
	in, groupBy, specs, out := q1Input(rows, certainKeys)
	ctx := context.Background()
	opt := Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var err error
		if aggSink, err = AggRelations(ctx, in, groupBy, specs, out, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// refFold is the contribution-at-a-time fold of the bounds xs of side dir
// into acc: each clamped to mo's neutral element when clamp is set, then
// added with plusBound, stopping at the first error.
func refFold(mo aggMonoid, dir int, clamp bool, acc types.Value, xs []types.Value) (types.Value, int, error) {
	for i, x := range xs {
		if clamp && dir < 0 {
			x = types.Min(mo.neutral(), x)
		} else if clamp {
			x = types.Max(mo.neutral(), x)
		}
		var err error
		if acc, err = mo.plusBound(acc, x, dir); err != nil {
			return acc, i, err
		}
	}
	return acc, len(xs), nil
}

// TestTypedFoldMatchesValues: a bound column folds into an accumulator
// exactly as the types.Value fold does — the same bits, or the same error
// at the same index — for every monoid, side, clamp and starting
// accumulator, over columns that stay typed and columns that spill: an
// Int(0) neutral that meets floats only after clamped bounds, -0, NaN,
// +Inf + -Inf meeting another NaN, an int sum that saturates at MaxInt64
// to a sentinel, an int stored after floats, a string at index 2,
// sentinels and a null.
func TestTypedFoldMatchesValues(t *testing.T) {
	f, i := types.Float, types.Int
	negZero, nan := f(math.Copysign(0, -1)), f(math.NaN())
	cols := []struct {
		name string
		xs   []types.Value
		kind colKind
	}{
		{"floats", []types.Value{f(0.5), negZero, f(2.25), f(-1.5), nan, f(3)}, colFloat},
		{"two NaNs", []types.Value{f(1), f(math.Inf(1)), f(math.Inf(-1)), nan, f(2)}, colFloat},
		{"non-negative floats", []types.Value{f(0), f(1.5), negZero, f(4)}, colFloat},
		{"negative floats", []types.Value{f(-1), f(-0.25), negZero}, colFloat},
		{"ints", []types.Value{i(3), i(-4), i(0), i(9)}, colInt},
		{"ints saturating", []types.Value{i(math.MaxInt64), i(1), i(-5), i(2)}, colInt},
		{"ints saturating below", []types.Value{i(math.MinInt64), i(-1), i(7)}, colInt},
		{"int after floats", []types.Value{f(1.5), f(-0.5), i(2), f(0.25)}, colValue},
		{"string at 2", []types.Value{f(1.5), f(2.5), types.String("s"), f(4)}, colValue},
		{"sentinels", []types.Value{f(1), types.PosInf(), i(2), types.NegInf()}, colValue},
		{"null", []types.Value{i(1), types.Null(), f(2)}, colValue},
	}
	accs := []types.Value{types.Int(0), types.PosInf(), types.NegInf(), i(3), i(math.MaxInt64 - 1), f(-0.5), negZero, nan, types.Null()}
	for _, c := range cols {
		col := boundCol{n: len(c.xs)}
		for x, v := range c.xs {
			col.put(x, v, v)
		}
		if col.kind != c.kind {
			t.Fatalf("%s: column kind %d, want %d", c.name, col.kind, c.kind)
		}
		for _, mo := range []aggMonoid{monoidSum, monoidMin, monoidMax} {
			for _, dir := range []int{-1, 1} {
				for _, clamp := range []bool{false, true} {
					for _, acc0 := range accs {
						want, wantAt, wantErr := refFold(mo, dir, clamp, acc0, c.xs)
						got := acc0
						at, err := col.fold(mo, dir, clamp, &got, 0, len(c.xs))
						if wantErr != nil || err != nil {
							if err == nil || wantErr == nil || at != wantAt || err.Error() != wantErr.Error() {
								t.Errorf("%s, monoid %d, dir %d, clamp %v, from %v: error %v at %d, want %v at %d", c.name, mo, dir, clamp, acc0, err, at, wantErr, wantAt)
							}
							continue
						}
						if !types.Same(got, want) {
							t.Errorf("%s, monoid %d, dir %d, clamp %v, from %v: %v (%v), want %v (%v)", c.name, mo, dir, clamp, acc0, got, got.Kind(), want, want.Kind())
						}
					}
				}
			}
		}
	}
}

// TestStarTypedMatchesStarBounds: the typed ⊛ (starFloat, starInt, as
// boundCols.set applies them) stores exactly the bounds starBounds
// returns, or records its error, over certain and uncertain
// multiplicities (zero among them) and float and int arguments with -0,
// NaN, float infinities and int products that saturate.
func TestStarTypedMatchesStarBounds(t *testing.T) {
	f, i := types.Float, types.Int
	vals := []types.Value{
		f(0), f(math.Copysign(0, -1)), f(1.5), f(-2.25), f(math.NaN()), f(math.Inf(1)), f(math.Inf(-1)), f(1e300),
		i(0), i(1), i(-3), i(math.MaxInt64), i(math.MinInt64), i(1 << 40),
		types.PosInf(), types.Null(), types.String("s"),
	}
	mults := []Mult{{1, 1, 1}, {0, 1, 1}, {0, 0, 0}, {2, 3, 5}, {3, 3, 3}, {1 << 40, 1 << 40, 1 << 41}}
	for _, mo := range []aggMonoid{monoidSum, monoidMin, monoidMax} {
		for _, m := range mults {
			for _, lo := range vals {
				for _, hi := range vals {
					if types.Less(hi, lo) {
						continue
					}
					v := rangeval.New(lo, lo, hi)
					b := newBoundCols(1, 1)
					ok := b.set(0, 0, mo, &m, &v, lo)
					if types.Same(lo, hi) {
						// A point: the lanes pass it without a triple.
						p := newBoundCols(1, 1)
						if p.set(0, 0, mo, &m, nil, lo) != ok || len(p.errs) != len(b.errs) || ok && (!types.Same(p.cols[0].at(-1, 0), b.cols[0].at(-1, 0)) || !types.Same(p.cols[0].at(1, 0), b.cols[0].at(1, 0))) {
							t.Errorf("monoid %d, %v ⊛ point %v: differs from its triple", mo, m, lo)
						}
					}
					wantLo, wantHi, wantErr := mo.starBounds(&m, &v)
					switch {
					case wantErr != nil || !ok:
						if ok || len(b.errs) != 1 || wantErr == nil || b.errs[0].err.Error() != wantErr.Error() {
							t.Errorf("monoid %d, %v ⊛ %v: set %v %v, starBounds error %v", mo, m, v, ok, b.errs, wantErr)
						}
					case !types.Same(b.cols[0].at(-1, 0), wantLo) || !types.Same(b.cols[0].at(1, 0), wantHi):
						t.Errorf("monoid %d, %v ⊛ %v: [%v, %v], want [%v, %v]", mo, m, v, b.cols[0].at(-1, 0), b.cols[0].at(1, 0), wantLo, wantHi)
					}
				}
			}
		}
	}
}

// seedKernel decodes a committed FuzzAgg seed and runs passes 1 and 2 on
// it, as rows, with no compression.
func seedKernel(t *testing.T, name string) *aggKernel {
	t.Helper()
	in, groupBy, specs := decodeAggInput(readAggSeed(t, name))
	_, slots, err := planAggs(specs)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ai := aggInputOf(in)
	gs, err := groupRows(ai, groupBy, 0, ctxpoll.New(ctx))
	if err != nil {
		t.Fatal(err)
	}
	k, err := newAggKernel(ai, groupBy, slots, gs, 0, ctxpoll.New(ctx))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := k.foldRows(ctx, 1, ChunkSpans(len(gs.gbox), 1, minParGroups)); err != nil {
		t.Fatal(err)
	}
	if k.kept+gs.nbox == 0 || gs.nbox == 0 {
		t.Fatalf("%s keeps %d point rows and %d boxes; want both", name, k.kept, gs.nbox)
	}
	return k
}

// TestAggFuzzSeedsTyped: the two FuzzAgg seeds of the bound columns reach
// the cases their names promise. seed-typed-floats keeps point and box
// rows whose every slot (sum, min and max of floats under multiplicities
// that are certainly positive) stays a float column; seed-kind-switch
// keeps rows whose sum stores floats and then ints, so its column spills
// to values holding both.
func TestAggFuzzSeedsTyped(t *testing.T) {
	k := seedKernel(t, "seed-typed-floats")
	if len(k.slots) != 3 {
		t.Fatalf("seed-typed-floats has %d slots, want sum, min and max", len(k.slots))
	}
	for j, c := range k.bounds.cols {
		if c.kind != colFloat {
			t.Errorf("seed-typed-floats: slot %d column kind %d, want float", j, c.kind)
		}
	}
	k = seedKernel(t, "seed-kind-switch")
	c := k.bounds.cols[0]
	kinds := map[types.Kind]bool{}
	for _, v := range c.vlo {
		kinds[v.Kind()] = true
	}
	if len(k.slots) != 1 || c.kind != colValue || !kinds[types.KindFloat] || !kinds[types.KindInt] {
		t.Fatalf("seed-kind-switch: %d slots, column kind %d holding %v; want one value column of floats and ints", len(k.slots), c.kind, kinds)
	}
}

// TestAggKeptRowsCostBoundColumns: a kept row costs its ⊛ bounds, 16 B
// per slot, not a 96 B triple per slot. One box row widens a group that
// every point key overlaps, so every row is kept; pass 2 over 6,000 rows
// allocates at most 16 B per slot and 4 B of chunk bookkeeping per row
// more than over 600.
func TestAggKeptRowsCostBoundColumns(t *testing.T) {
	a := expr.Col(1, "a")
	_, slots, err := planAggs([]ra.AggSpec{
		{Fn: ra.AggSum, Arg: a, Name: "s"},
		{Fn: ra.AggCount, Name: "n"},
		{Fn: ra.AggMax, Arg: a, Name: "hi"},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := func(n int) *AggInput {
		g, av := make([]rangeval.V, n), make([]types.Value, n)
		for i := range n {
			g[i], av[i] = rangeval.Certain(types.Int(int64(i%7))), types.Float(float64(i%97)/4)
		}
		g[0] = rangeval.New(types.Int(0), types.Int(0), types.Int(6))
		m := make([]int64, n)
		for i := range m {
			m[i] = 1
		}
		in := NewAggInput(0)
		in.AppendColumns([]rangeval.Col{rangeval.ColFromDense(g), rangeval.ColFromFlat(av)}, m, nil, n, nil)
		return in
	}
	ctx := context.Background()
	pass2 := func(in *AggInput) uint64 {
		gs, err := groupRows(in, []int{0}, 0, ctxpoll.New(ctx))
		if err != nil {
			t.Fatal(err)
		}
		spans := ChunkSpans(len(gs.gbox), 1, minParGroups)
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k, err := newAggKernel(in, []int{0}, slots, gs, 0, ctxpoll.New(ctx))
			if err == nil {
				_, _, err = k.foldRows(ctx, 1, spans)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if k.kept != in.Len()-1 {
				t.Fatalf("%d of %d rows kept", k.kept+k.gs.nbox, in.Len())
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := pass2(input(600)), pass2(input(6000))
	perRow := float64(large-small) / 5400
	t.Logf("pass 2: %d B over 600 rows, %d B over 6,000: %.1f B per row over %d slots", small, large, perRow, len(slots))
	if limit := float64(16*len(slots) + 4); perRow > limit {
		t.Fatalf("pass 2 allocates %.1f B per kept row over %d slots; want at most %.0f", perRow, len(slots), limit)
	}
}
