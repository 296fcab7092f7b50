package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/schema"
)

// TestParallelMatchesSerial asserts the central contract of the parallel
// executor: for every plan, database, worker count and join strategy, the
// result — tuple order, attribute bounds and annotations — is identical to
// the Workers: 1 reference evaluation. Runs under -race in CI, which also
// exercises the chunked paths for data races.
func TestParallelMatchesSerial(t *testing.T) {
	plans := propertyPlans()
	bases := []Options{
		{},
		{NaiveJoin: true},
		{JoinCompression: 2, AggCompression: 3},
	}
	trials := 8
	if testing.Short() {
		trials = 3
	}
	// Tiny thresholds would defeat the test: real inputs here are far below
	// minParTuples, so force chunking by lowering worker granularity via
	// larger synthetic inputs below AND by checking small inputs still work.
	for name, plan := range plans {
		for trial := 0; trial < trials; trial++ {
			seed := int64(100*trial) + int64(len(name))
			rng := rand.New(rand.NewSource(seed))
			rRel := genIncomplete(rng, schema.New("a", "b"), 2+rng.Intn(30))
			sRel := genIncomplete(rng, schema.New("c", "d"), 1+rng.Intn(20))
			db := DB{"r": rRel.auRelation(), "s": sRel.auRelation()}
			for _, base := range bases {
				ref, err := Exec(context.Background(), plan, db, withWorkers(base, 1))
				if err != nil {
					t.Fatalf("[%s seed=%d opt=%+v] serial exec: %v", name, seed, base, err)
				}
				for _, w := range []int{2, 4, 8} {
					got, err := Exec(context.Background(), plan, db, withWorkers(base, w))
					if err != nil {
						t.Fatalf("[%s seed=%d opt=%+v workers=%d] parallel exec: %v", name, seed, base, w, err)
					}
					if got.String() != ref.String() {
						t.Fatalf("[%s seed=%d opt=%+v workers=%d] parallel result differs from serial:\nserial:\n%s\nparallel:\n%s",
							name, seed, base, w, ref, got)
					}
				}
			}
		}
	}
}

func withWorkers(o Options, w int) Options {
	o.Workers = w
	return o
}

// TestParallelMatchesSerialLarge pushes equi-joins (hash and swept) and an
// aggregation over inputs big enough to cross the chunking thresholds, so
// the goroutine paths (not the serial fallbacks) are what gets compared.
func TestParallelMatchesSerialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large parallel-identity check skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(42))
	rRel := genIncomplete(rng, schema.New("a", "b"), 1500)
	sRel := genIncomplete(rng, schema.New("c", "d"), 60)
	rc := rRel.auRelation()
	rc.Compact(StoragePolicy{})
	db := DB{
		"r": rRel.auRelation(), "s": sRel.auRelation(), "rc": rc,
		"u": uncertainJoinInput("u", 1200), "v": uncertainJoinInput("v", 900),
	}
	aggs := []ra.AggSpec{
		{Fn: ra.AggSum, Arg: expr.Mul(expr.Col(1, "x"), expr.CInt(3)), Name: "s"},
		{Fn: ra.AggMin, Arg: expr.Col(1, "x"), Name: "lo"},
		{Fn: ra.AggAvg, Arg: expr.Col(1, "x"), Name: "m"},
		{Fn: ra.AggCount, Name: "c"},
	}
	plans := map[string]ra.Node{
		"select": &ra.Select{
			Child: &ra.Scan{Table: "r"},
			Pred:  expr.Lt(expr.Col(0, "a"), expr.CInt(4)),
		},
		"join": &ra.Join{
			Left:  &ra.Scan{Table: "r"},
			Right: &ra.Scan{Table: "s"},
			Cond:  expr.Eq(expr.Col(0, "a"), expr.Col(2, "c")),
		},
		// Both swept quadrants: r's certain keys against u's uncertain
		// ones, and r's uncertain keys against all of u.
		"swept-join": &ra.Join{
			Left:  &ra.Scan{Table: "r"},
			Right: &ra.Scan{Table: "u"},
			Cond:  expr.Eq(expr.Col(0, "a"), expr.Col(2, "uk")),
		},
		// Uncertain keys on both sides, narrow enough for the index to
		// prune most pairs.
		"swept-join-narrow": &ra.Join{
			Left:  &ra.Scan{Table: "u"},
			Right: &ra.Scan{Table: "v"},
			Cond: expr.And(
				expr.Eq(expr.Col(0, "uk"), expr.Col(2, "vk")),
				expr.Leq(expr.Col(1, "uv"), expr.Col(3, "vv")),
			),
		},
		"agg": &ra.Agg{
			Child:   &ra.Scan{Table: "r"},
			GroupBy: []int{1},
			Aggs: []ra.AggSpec{
				{Fn: ra.AggSum, Arg: expr.Col(0, "a"), Name: "s"},
				{Fn: ra.AggCount, Name: "c"},
			},
		},
		// The aggregation kernel's two passes and its walk, split by
		// groups: 1200 groups, every one widened by its sliding box key
		// and reached by its neighbours' boxes.
		"agg-widened": &ra.Agg{Child: &ra.Scan{Table: "u"}, GroupBy: []int{0}, Aggs: aggs},
		// Columnar input read without a densify, and no group-by.
		"agg-compacted": &ra.Agg{Child: &ra.Scan{Table: "rc"}, GroupBy: []int{0}, Aggs: aggs},
		"agg-global":    &ra.Agg{Child: &ra.Scan{Table: "rc"}, Aggs: aggs},
	}
	for name, plan := range plans {
		for _, base := range []Options{{}, {JoinCompression: 8, AggCompression: 8}} {
			ref, err := Exec(context.Background(), plan, db, withWorkers(base, 1))
			if err != nil {
				t.Fatalf("[%s] serial exec: %v", name, err)
			}
			for _, w := range []int{2, 4, 8} {
				got, err := Exec(context.Background(), plan, db, withWorkers(base, w))
				if err != nil {
					t.Fatalf("[%s workers=%d] parallel exec: %v", name, w, err)
				}
				if got.String() != ref.String() {
					t.Fatalf("[%s workers=%d opt=%+v] parallel result differs from serial", name, w, base)
				}
			}
		}
	}
}

// TestExecDefensiveErrors covers the error paths that used to panic or
// surface without context: nil plans, typed-nil children, unknown tables
// reached through nested operators.
func TestExecDefensiveErrors(t *testing.T) {
	db := DB{"r": New(schema.New("a", "b"))}
	cases := []struct {
		name string
		plan ra.Node
		want string
	}{
		{"nil-plan", nil, "nil plan"},
		{"typed-nil-plan", (*ra.Scan)(nil), "nil plan"},
		{"nil-select-child", &ra.Select{Child: nil, Pred: expr.CBool(true)}, "nil plan node"},
		{"typed-nil-join-child", &ra.Join{Left: (*ra.Join)(nil), Right: &ra.Scan{Table: "r"}}, "nil plan node"},
		{"unknown-table", &ra.Scan{Table: "missing"}, `unknown table "missing"`},
		{
			"unknown-table-under-join",
			&ra.Join{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "missing"}},
			"join right input",
		},
		{
			"unknown-table-under-agg",
			&ra.Agg{Child: &ra.Scan{Table: "missing"},
				Aggs: []ra.AggSpec{{Fn: ra.AggCount, Name: "c"}}},
			"aggregation input",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Exec(context.Background(), tc.plan, db, Options{})
			if err == nil {
				t.Fatalf("expected error, got result:\n%s", res)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestChunkSpans pins down the partitioning invariants every parallel path
// relies on: spans cover [0, n) contiguously, respect the minimum chunk
// size, and never exceed the worker count.
func TestChunkSpans(t *testing.T) {
	for _, tc := range []struct{ n, w, min, maxChunks int }{
		{0, 4, 1, 0},
		{1, 4, 1, 1},
		{10, 4, 1, 4},
		{10, 4, 100, 1},
		{1000, 4, 100, 4},
		{1000, 1, 1, 1},
		{7, 16, 1, 7},
	} {
		spans := ChunkSpans(tc.n, tc.w, tc.min)
		if len(spans) > tc.maxChunks {
			t.Errorf("ChunkSpans(%d,%d,%d): %d chunks, want <= %d", tc.n, tc.w, tc.min, len(spans), tc.maxChunks)
		}
		next := 0
		for _, s := range spans {
			if s.Lo != next || s.Hi < s.Lo {
				t.Fatalf("ChunkSpans(%d,%d,%d): bad span %+v at offset %d", tc.n, tc.w, tc.min, s, next)
			}
			next = s.Hi
		}
		if next != tc.n {
			t.Errorf("ChunkSpans(%d,%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.w, tc.min, next, tc.n)
		}
	}
}
