package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// half is just over half of MaxInt64: two of them overflow a sum, and
// their product overflows many times over.
const half = math.MaxInt64/2 + 5

// TestMultHiSaturates: every place that sums or multiplies multiplicity
// upper bounds saturates at MaxInt64 instead of wrapping, so the possible
// multiplicity stays bounded. Each case is one such site, fed bounds that
// overflow int64.
func TestMultHiSaturates(t *testing.T) {
	ctx := context.Background()
	big := Mult{Lo: 0, SG: 1, Hi: half}
	one := func(m Mult, vals ...rangeval.V) *Relation {
		attrs := []string{"a", "b"}[:len(vals)]
		r := New(schema.New(attrs...))
		r.Add(Tuple{Vals: vals, M: m})
		return r
	}
	cases := []struct {
		name string
		got  func(t *testing.T) Mult
		want Mult
	}{
		{"Mult.Add", func(*testing.T) Mult { return big.Add(big) }, Mult{0, 2, math.MaxInt64}},
		{"Mult.Add at MaxInt64", func(*testing.T) Mult {
			return Mult{0, 0, math.MaxInt64}.Add(Mult{0, 0, 1})
		}, Mult{0, 0, math.MaxInt64}},
		{"Mult.Mul", func(*testing.T) Mult { return big.Mul(big) }, Mult{0, 1, math.MaxInt64}},
		{"Mult.Mul at MaxInt64", func(*testing.T) Mult {
			return Mult{1, 1, math.MaxInt64}.Mul(Mult{1, 1, 2})
		}, Mult{1, 1, math.MaxInt64}},
		{"Mult.Mul exact below MaxInt64", func(*testing.T) Mult {
			return Mult{1, 1, math.MaxInt64 / 3}.Mul(Mult{0, 1, 3})
		}, Mult{0, 1, math.MaxInt64 / 3 * 3}},
		{"join", func(t *testing.T) Mult {
			// The reproducer: at the parent the join returned (0,1,16).
			out, err := JoinRelations(ctx, one(big, civ(1)), one(big, civ(1)), nil, Options{Workers: 1})
			if err != nil || len(out.Tuples) != 1 {
				t.Fatalf("join: %v, %v", out, err)
			}
			return out.Tuples[0].M
		}, Mult{0, 1, math.MaxInt64}},
		{"aggregation group annotation", func(t *testing.T) Mult {
			in := New(schema.New("g"))
			in.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: big})
			in.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: big})
			out, err := AggRelations(ctx, in, []int{0}, []ra.AggSpec{{Fn: ra.AggCount, Name: "n"}}, schema.New("g", "n"), Options{Workers: 1})
			if err != nil || len(out.Tuples) != 1 {
				t.Fatalf("aggregation: %v, %v", out, err)
			}
			return out.Tuples[0].M
		}, Mult{0, 1, math.MaxInt64}},
		{"compressContribs", func(*testing.T) Mult {
			c := contrib{gb: rangeval.Tuple{civ(1)}, m: big}
			return compressContribs([]contrib{c, c, c}, 1)[0].m
		}, Mult{0, 0, math.MaxInt64}},
		{"CompressWithBoundaries", func(t *testing.T) Mult {
			r := New(schema.New("a"))
			r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: big})
			r.Add(Tuple{Vals: rangeval.Tuple{civ(2)}, M: big})
			out := CompressWithBoundaries(r, 0, []types.Value{types.Int(10)})
			if len(out.Tuples) != 1 {
				t.Fatalf("compression: %v", out)
			}
			return out.Tuples[0].M
		}, Mult{0, 0, math.MaxInt64}},
		{"difference over points", func(t *testing.T) Mult {
			// Two certain right rows equal to the left one: their upper
			// bounds sum past MaxInt64, so nothing of the left row is
			// certain. A wrapped sum made its Lo 5.
			r := one(Mult{0, 0, half}, civ(1))
			r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: Mult{0, 0, half}})
			out, err := DiffRelations(ctx, one(Mult{1, 5, 5}, civ(1)), r)
			if err != nil || len(out.Tuples) != 1 {
				t.Fatalf("difference: %v, %v", out, err)
			}
			return out.Tuples[0].M
		}, Mult{0, 5, 5}},
		{"difference over boxes", func(t *testing.T) Mult {
			r := one(Mult{0, 0, half}, iv(0, 2, 3))
			r.Add(Tuple{Vals: rangeval.Tuple{iv(-1, 0, 1)}, M: Mult{0, 0, half}})
			out, err := DiffRelations(ctx, one(Mult{1, 5, 5}, civ(1)), r)
			if err != nil || len(out.Tuples) != 1 {
				t.Fatalf("difference: %v, %v", out, err)
			}
			return out.Tuples[0].M
		}, Mult{0, 5, 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.got(t); got != c.want {
				t.Errorf("%v, want %v", got, c.want)
			}
		})
	}
}

// TestMergeSGOverflow: merging rows whose SG multiplicities sum past
// MaxInt64 is an *types.ErrOverflow, from MergeCtx and from Exec over a
// stored table, as count(*) over the same table reports it; Merge panics
// with it. Lo and Hi alone never fail: Hi saturates.
func TestMergeSGOverflow(t *testing.T) {
	ctx := context.Background()
	u := func(m Mult) *Relation {
		r := New(schema.New("a"))
		r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: m})
		r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: m})
		return r
	}
	big := Mult{1, half, half}
	isOverflow := func(err error) bool {
		var o *types.ErrOverflow
		return errors.As(err, &o)
	}
	if out, err := u(big).MergeCtx(ctx); !isOverflow(err) {
		t.Errorf("MergeCtx: %v, %v; want an integer overflow", out, err)
	}
	if out, err := Exec(ctx, &ra.Scan{Table: "u"}, DB{"u": u(big)}, Options{}); !isOverflow(err) {
		t.Errorf("Exec: %v, %v; want an integer overflow", out, err)
	}
	func() {
		defer func() {
			if err, _ := recover().(error); !isOverflow(err) {
				t.Errorf("Merge panicked with %v; want an integer overflow", err)
			}
		}()
		u(big).Merge()
	}()
	out, err := u(Mult{0, 1, half}).MergeCtx(ctx)
	if err != nil || len(out.Tuples) != 1 || out.Tuples[0].M != (Mult{0, 2, math.MaxInt64}) {
		t.Errorf("saturating Hi: %v, %v; want one row (0,2,MaxInt64)", out, err)
	}
}

// TestDiffSGOverflow: the difference reports an SG sum that leaves int64
// as an *types.ErrOverflow, on its left side's SG-combined multiplicity
// and on its right side's sum, and so does δ; the sums used to wrap, to
// (0,0,MaxInt64) and (0,1,1).
func TestDiffSGOverflow(t *testing.T) {
	ctx := context.Background()
	const half = math.MaxInt64/2 + 5
	rel := func(ms ...Mult) *Relation {
		r := New(schema.New("a"))
		for _, m := range ms {
			r.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: m})
		}
		return r
	}
	u, w, v := rel(Mult{1, half, half}, Mult{1, half, half}), rel(Mult{0, half, half}, Mult{0, half, half}), rel(One)
	check := func(name string, out *Relation, err error) {
		t.Helper()
		var o *types.ErrOverflow
		if !errors.As(err, &o) || !strings.Contains(err.Error(), "integer overflow: 4611686018427387908 + 4611686018427387908") {
			t.Errorf("%s: %v, %v; want an integer overflow", name, out, err)
		}
	}
	out, err := DiffRelations(ctx, u, New(schema.New("a")))
	check("left side", out, err)
	out, err = DiffRelations(ctx, v, w)
	check("right side", out, err)
	out, err = DistinctRelation(ctx, u, Options{Workers: 1})
	check("distinct", out, err)
	// Below the edge the sums are exact.
	out, err = DiffRelations(ctx, rel(Mult{1, half - 10, half - 10}, Mult{1, half - 10, half - 10}), rel(Mult{0, 3, 3}))
	if err != nil || len(out.Tuples) != 1 || out.Tuples[0].M != (Mult{0, 2*(half-10) - 3, 2 * (half - 10)}) {
		t.Errorf("exact sums: %v, %v", out, err)
	}
}

// TestJoinSGOverflow: a join whose SG multiplicity product leaves int64
// is an integer overflow, in every join strategy. At the parent the
// self-join of one row of multiplicity 3.1e9 returned
// (-8836744073709551616,…).
func TestJoinSGOverflow(t *testing.T) {
	ctx := context.Background()
	const n = 3_100_000_000
	u := New(schema.New("a"))
	u.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: Mult{n, n, n}})
	eq := expr.Eq(expr.Col(0, "a"), expr.Col(1, "a"))
	for _, c := range []struct {
		name string
		cond expr.Expr
		opt  Options
	}{
		{"nested", nil, Options{Workers: 1}},
		{"hybrid", eq, Options{Workers: 1}},
		{"naive", eq, Options{Workers: 1, NaiveJoin: true}},
		{"compressed", eq, Options{Workers: 1, JoinCompression: 1}},
	} {
		out, err := JoinRelations(ctx, u, u, c.cond, c.opt)
		var o *types.ErrOverflow
		if !errors.As(err, &o) || !strings.Contains(err.Error(), "integer overflow: 3100000000 * 3100000000") {
			t.Errorf("%s: %v, %v; want an integer overflow", c.name, out, err)
		}
	}
	// Below the edge the product is exact.
	const m = 3_000_000_000
	v := New(schema.New("a"))
	v.Add(Tuple{Vals: rangeval.Tuple{civ(1)}, M: Mult{m, m, m}})
	out, err := JoinRelations(ctx, v, v, eq, Options{Workers: 1})
	if err != nil || len(out.Tuples) != 1 || out.Tuples[0].M != (Mult{m * m, m * m, m * m}) {
		t.Errorf("exact product: %v, %v", out, err)
	}
}

// TestAggMultSumSaturates: the group annotation's sums saturate instead
// of wrapping. Four rows a=1 of multiplicity 2^62 sum to 2^64, which
// wrapped to 0 and gave the group (0,0,MaxInt64) at the parent; δ of a
// saturated sum is 1. Every layout and worker count agrees with the
// oracle.
func TestAggMultSumSaturates(t *testing.T) {
	const q = 1 << 62
	in := New(schema.New("a", "b"))
	for i := range 4 {
		in.Add(Tuple{Vals: rangeval.Tuple{civ(1), civ(int64(i))}, M: Mult{q, q, q}})
	}
	specs := []ra.AggSpec{{Fn: ra.AggMin, Arg: expr.Col(1, "b"), Name: "m"}}
	out, err := AggRelations(context.Background(), in, []int{0}, specs, schema.New("a", "m"), Options{Workers: 1})
	if err != nil || len(out.Tuples) != 1 || out.Tuples[0].M != (Mult{1, 1, math.MaxInt64}) {
		t.Fatalf("got %v, %v; want one row (1,1,MaxInt64)", out, err)
	}
	checkAggRelation(t, in, []int{0}, specs, 1)
}
