package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/testutil"
	"github.com/audb/audb/internal/types"
)

// naiveDiff is Definition 22 as a nested loop over every (left, right)
// pair: the oracle the indexed DiffRelations must match byte for byte.
func naiveDiff(ctx context.Context, l, r *Relation) (*Relation, error) {
	comb, err := l.SGCombine()
	if err != nil {
		return nil, fmt.Errorf("core: difference: %w", err)
	}
	out := New(l.Schema)
	p := ctxpoll.New(ctx)
	rSG := map[string]int64{}
	for _, rt := range r.Tuples {
		if err := p.Due(); err != nil {
			return nil, err
		}
		k := rt.Vals.SGKey()
		sum, err := Mult{SG: rSG[k]}.AddChecked(Mult{SG: rt.M.SG})
		if err != nil {
			return nil, fmt.Errorf("core: difference: %w", err)
		}
		rSG[k] = sum.SG
	}
	for _, lt := range comb.Tuples {
		var overlapHi, certLo int64
		for _, rt := range r.Tuples {
			if err := p.Due(); err != nil {
				return nil, err
			}
			if lt.Vals.Overlaps(rt.Vals) {
				overlapHi = addHi(overlapHi, rt.M.Hi)
			}
			if lt.Vals.CertainlyEqual(rt.Vals) {
				certLo += rt.M.Lo
			}
		}
		m := Mult{
			Lo: monus(lt.M.Lo, overlapHi),
			SG: monus(lt.M.SG, rSG[lt.Vals.SGKey()]),
			Hi: monus(lt.M.Hi, certLo),
		}
		if m.SG > m.Hi {
			m.SG = m.Hi
		}
		if m.Lo > m.SG {
			m.Lo = m.SG
		}
		if m.Hi > 0 {
			out.Add(Tuple{Vals: lt.Vals, M: m})
		}
	}
	return out, nil
}

// overlapAlphabet is the value domain of decodeOverlapInputs: few enough
// values that keys repeat and ranges overlap often, covering every kind,
// both infinities, -0 against 0, 1 against 1.0, and NaN.
var overlapAlphabet = []types.Value{
	types.NegInf(), types.Null(), types.Bool(true), types.Float(math.NaN()),
	types.Float(math.Inf(-1)), types.Int(-1), types.Float(math.Copysign(0, -1)), types.Int(0),
	types.Float(0.5), types.Int(1), types.Float(1), types.Int(2),
	types.Float(math.Inf(1)), types.String("a"), types.String("b"), types.PosInf(),
}

var overlapOps = []expr.CmpOp{expr.OpEq, expr.OpNeq, expr.OpLt, expr.OpLeq, expr.OpGeq}

// decodeOverlapInputs turns bytes into two relations of one arity (1–3)
// and a join condition: an equality between one left and one right column
// and a comparison between another such pair. Every tuple takes a tag byte
// (bit 0 picks the side), one byte per attribute (low four bits pick the
// value; bit 4 makes it a box, whose other two corners come from a further
// byte) and a multiplicity byte.
func decodeOverlapInputs(data []byte) (l, r *Relation, cond expr.Expr) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	h, c := next(), next()
	arity := 1 + int(h%3)
	names := func(side string) schema.Schema {
		attrs := make([]string, arity)
		for i := range attrs {
			attrs[i] = fmt.Sprintf("%s%d", side, i)
		}
		return schema.New(attrs...)
	}
	l, r = New(names("l")), New(names("r"))
	col := func(b byte, right bool) expr.Attr {
		i := int(b) % arity
		if right {
			return expr.Col(arity+i, fmt.Sprintf("r%d", i))
		}
		return expr.Col(i, fmt.Sprintf("l%d", i))
	}
	cond = expr.And(
		expr.Eq(col(h>>2, false), col(h>>4, true)),
		expr.Cmp{Op: overlapOps[int(c)%len(overlapOps)], L: col(c>>3, false), R: col(c>>5, true)},
	)
	for len(data) > 0 {
		dst := l
		if next()&1 == 1 {
			dst = r
		}
		vals := make(rangeval.Tuple, arity)
		for i := range vals {
			x := next()
			v := overlapAlphabet[x&15]
			vals[i] = rangeval.Certain(v)
			if x&16 != 0 {
				y := next()
				corners := []types.Value{overlapAlphabet[y&15], v, overlapAlphabet[y>>4]}
				slices.SortFunc(corners, types.Compare)
				vals[i] = rangeval.New(corners[0], v, corners[2])
			}
		}
		m := next()
		lo := int64(m & 1)
		sg := lo + int64(m>>1&1)
		dst.Add(Tuple{Vals: vals, M: Mult{Lo: lo, SG: sg, Hi: sg + int64(m>>2&3)}})
	}
	return l, r, cond
}

// checkOverlapInputs asserts that the indexed difference equals naiveDiff
// and that the hybrid join equals NaiveJoin, for dense and compacted inputs
// and workers {1, 4}. The hybrid join's own output must also not depend on
// the worker count. Each storage has its own oracle run: compaction stores
// a certain value once, so [-0/0/-0] comes back as [0/0/0].
func checkOverlapInputs(t *testing.T, data []byte) {
	t.Helper()
	ctx := context.Background()
	l, r, cond := decodeOverlapInputs(data)
	for _, sparse := range []bool{false, true} {
		if sparse {
			l.Compact(StoragePolicy{})
			r.Compact(StoragePolicy{})
		}
		want, err := naiveDiff(ctx, l.Dense(), r.Dense())
		if err != nil {
			t.Fatal(err)
		}
		got, err := DiffRelations(ctx, l, r)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("sparse=%v: difference\n%s\nwant (nested loop)\n%s\nl:\n%s\nr:\n%s", sparse, got, want, l, r)
		}
		naive, err := JoinRelations(ctx, l, r, cond, Options{NaiveJoin: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var serial *Relation
		for _, workers := range []int{1, 4} {
			j, err := JoinRelations(ctx, l, r, cond, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				serial = j
			} else if !slices.EqualFunc(j.Tuples, serial.Tuples, sameTuple) {
				t.Fatalf("sparse=%v: hybrid join differs between workers 1 and %d", sparse, workers)
			}
		}
		// The hybrid emits its quadrants in another order than the nested
		// loop, so the two are compared as merged bags.
		if got, want := joinBag(serial), joinBag(naive); !maps.Equal(got, want) {
			t.Fatalf("sparse=%v: %s\nhybrid join\n%s\nwant (naive join)\n%s\nl:\n%s\nr:\n%s",
				sparse, cond, serial.Merge().Sort(), naive.Merge().Sort(), l, r)
		}
	}
}

// sameTuple reports whether a and b have identical triples (by key) and
// annotations.
func sameTuple(a, b Tuple) bool { return a.M == b.M && a.Vals.Key() == b.Vals.Key() }

// joinBag sums a relation's annotations by tuple key: its merged form,
// without the sort.
func joinBag(r *Relation) map[string]Mult {
	bag := map[string]Mult{}
	for _, t := range r.Tuples {
		k := t.Vals.Key()
		bag[k] = bag[k].Add(t.M)
	}
	return bag
}

// TestOverlapMatchesNestedLoop: the overlap index finds exactly the pairs
// the nested loop finds, for difference and for the join, on random inputs
// mixing points and boxes of every kind, duplicate keys and empty sides.
// Inputs reach ~130 rows per side, so workers 4 really splits the swept
// quadrants.
func TestOverlapMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials := 120
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		data := make([]byte, rng.Intn(1+trial*9%1000))
		rng.Read(data)
		checkOverlapInputs(t, data)
	}
}

// FuzzOverlap checks the indexed difference and the hybrid join against
// their nested-loop oracles on inputs decoded from arbitrary bytes. Seeds,
// a NaN one among them, are under testdata/fuzz/FuzzOverlap.
//
//	go test ./internal/core -run='^$' -fuzz FuzzOverlap -fuzztime 30s
func FuzzOverlap(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return // the nested-loop oracles are quadratic
		}
		checkOverlapInputs(t, data)
	})
}

// TestOverlapProbe: probe returns exactly what a linear scan finds, in
// ascending row order, for index sizes on and around block boundaries.
func TestOverlapProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, overlapBlock - 1, overlapBlock, overlapBlock + 1, 2 * overlapBlock, 5*overlapBlock + 3} {
		r := New(schema.New("a"))
		for i := 0; i < n; i++ {
			lo := int64(rng.Intn(200))
			hi := lo + int64(rng.Intn(4)*rng.Intn(30))
			r.Add(Tuple{Vals: rangeval.Tuple{rangeval.New(types.Int(lo), types.Int(lo), types.Int(hi))}, M: One})
		}
		// Index every other row, so row numbers are not positions.
		var rows []int
		for i := 0; i < n; i += 2 {
			rows = append(rows, i)
		}
		idx := newOverlapIndex(r, rows, 0)
		for probe := 0; probe < 300; probe++ {
			lo := types.Int(int64(rng.Intn(240) - 20))
			hi := types.Int(lo.AsInt() + int64(rng.Intn(3)*rng.Intn(40)))
			var want []int
			for _, i := range rows {
				if r.Tuples[i].Vals[0].Overlaps(rangeval.New(lo, lo, hi)) {
					want = append(want, i)
				}
			}
			got := idx.probe(lo, hi, []int{-1})
			if got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("n=%d probe [%v, %v]: got %v, want %v after the kept prefix", n, lo, hi, got, want)
			}
		}
	}
}

// TestDiffArityZero: zero-column tuples are all points with one key, so
// the difference is one subtraction and no index is probed.
func TestDiffArityZero(t *testing.T) {
	l, r := New(schema.New()), New(schema.New())
	l.Add(Tuple{Vals: rangeval.Tuple{}, M: Mult{2, 3, 4}})
	r.Add(Tuple{Vals: rangeval.Tuple{}, M: Mult{1, 1, 2}})
	got, err := DiffRelations(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := naiveDiff(context.Background(), l, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || got.Len() != 1 || got.Tuples[0].M != (Mult{0, 2, 3}) {
		t.Fatalf("got\n%s\nwant\n%s", got, want)
	}
}

// TestOverlapCancellation: a difference and a swept join whose every pair
// overlaps return ctx.Err() within 50 ms of a mid-flight cancel. Run to the
// end, each takes seconds; the join evaluates all 16M pairs and keeps none.
func TestOverlapCancellation(t *testing.T) {
	n := 4000
	l, r := wideInput("l", n), wideInput("r", n)
	cond := cancelCond()
	runs := map[string]func(ctx context.Context, workers int) error{
		"diff": func(ctx context.Context, _ int) error {
			_, err := DiffRelations(ctx, l, r)
			return err
		},
		"join": func(ctx context.Context, workers int) error {
			_, err := JoinRelations(ctx, l, r, cond, Options{Workers: workers})
			return err
		},
	}
	for name, run := range runs {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				testutil.NoLeaks(t)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- run(ctx, workers) }()
				time.Sleep(30 * time.Millisecond)
				cancelled := time.Now()
				cancel()
				err := <-done
				if lag := time.Since(cancelled); lag > 50*time.Millisecond {
					t.Errorf("returned %s after the cancel, want within 50ms", lag)
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled, got %v", err)
				}
			})
		}
	}
}

// TestNaNJoinAndDiff: a float NaN is one value of the total order, below
// every other number, so it neither joins with nor cancels a number. The
// hybrid join keys NaN by AppendKey and the naive join compares with
// Compare; both must agree, and {5} − {NaN} must keep 5.
func TestNaNJoinAndDiff(t *testing.T) {
	ctx := context.Background()
	point := func(name string, v types.Value) *Relation {
		r := New(schema.New(name))
		r.Add(Tuple{Vals: rangeval.Tuple{rangeval.Certain(v)}, M: One})
		return r
	}
	l := point("a", types.Int(5))
	r := point("b", types.Float(math.NaN()))
	cond := expr.Eq(expr.Col(0, "a"), expr.Col(1, "b"))
	hybrid, err := JoinRelations(ctx, l, r, cond, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := JoinRelations(ctx, l, r, cond, Options{NaiveJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.String() != naive.String() {
		t.Errorf("hybrid join:\n%s\nnaive join:\n%s", hybrid, naive)
	}
	if naive.Len() != 0 {
		t.Errorf("5 = NaN joined:\n%s", naive)
	}

	diff, err := DiffRelations(ctx, l, point("a", types.Float(math.NaN())))
	if err != nil {
		t.Fatal(err)
	}
	if want := "(5) (1,1,1)"; diff.Len() != 1 || diff.Tuples[0].String() != want {
		t.Errorf("{5} − {NaN} = %s, want %s", diff, want)
	}

	// Every NaN payload is the same value: {NaN} − {NaN'} is empty.
	other := types.Float(math.Float64frombits(math.Float64bits(math.NaN()) ^ 1))
	diff, err = DiffRelations(ctx, point("a", types.Float(math.NaN())), point("a", other))
	if err != nil {
		t.Fatal(err)
	}
	if diff.Len() != 0 {
		t.Errorf("{NaN} − {NaN'} = %s, want empty", diff)
	}
}
