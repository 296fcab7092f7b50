package phys

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/testutil"
	"github.com/audb/audb/internal/types"
)

// seqDB builds a single-table database of rows (i, i%mod) with the key
// column i wrapped in a small range so some tuples are attribute-uncertain.
func seqDB(rows, mod int) core.DB {
	rel := core.New(schema.New("k", "v"))
	for i := 0; i < rows; i++ {
		var k rangeval.V
		if i%5 == 0 {
			k = rangeval.New(types.Int(int64(i-1)), types.Int(int64(i)), types.Int(int64(i+1)))
		} else {
			k = rangeval.Certain(types.Int(int64(i)))
		}
		rel.Add(core.Tuple{
			Vals: rangeval.Tuple{k, rangeval.Certain(types.Int(int64(i % mod)))},
			M:    core.One,
		})
	}
	return core.DB{"t": rel}
}

func chainPlan(limit int) ra.Node {
	return &ra.Limit{
		N: limit,
		Child: &ra.Project{
			Cols: []ra.ProjCol{
				{E: expr.Col(1, "v"), Name: "v"},
				{E: expr.Add(expr.Col(0, "k"), expr.CInt(1)), Name: "k1"},
			},
			Child: &ra.Select{
				Child: &ra.Scan{Table: "t"},
				Pred:  expr.Lt(expr.Col(1, "v"), expr.CInt(17)),
			},
		},
	}
}

func topkPlan(limit int, desc bool) ra.Node {
	return &ra.Limit{
		N: limit,
		Child: &ra.OrderBy{
			Child: &ra.Scan{Table: "t"},
			Keys:  []int{1, 0},
			Desc:  desc,
		},
	}
}

// TestStreamingOperatorsMatchReference pins the streaming operators (and
// the top-k fusion) against the reference executor on data rich in ties
// and value-duplicates, across batch sizes and worker counts (exercising
// the exchange above minPartitionRows).
func TestStreamingOperatorsMatchReference(t *testing.T) {
	ctx := context.Background()
	rows := 3 * minPartitionRows // large enough for a parallel exchange
	db := seqDB(rows, 23)
	plans := []ra.Node{
		&ra.Scan{Table: "t"},
		chainPlan(10),
		chainPlan(0),
		chainPlan(rows * 2),
		topkPlan(7, false),
		topkPlan(7, true),
		topkPlan(0, false),
		topkPlan(rows*2, false),
		&ra.OrderBy{Child: &ra.Scan{Table: "t"}, Keys: []int{1}},
		&ra.Union{Left: &ra.Scan{Table: "t"}, Right: &ra.Scan{Table: "t"}},
	}
	for pi, plan := range plans {
		want, err := core.Exec(ctx, plan, db, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("plan %d: reference: %v", pi, err)
		}
		wantS := want.String() // unsorted: output order itself must match
		for _, g := range physOptionGrid {
			got, err := Exec(ctx, plan, db, Options{BatchSize: g.batch, Exec: core.Options{Workers: g.workers}})
			if err != nil {
				t.Fatalf("plan %d (w=%d b=%d): %v", pi, g.workers, g.batch, err)
			}
			if gotS := got.String(); gotS != wantS {
				t.Fatalf("plan %d (w=%d b=%d): output differs\nreference:\n%.400s\ngot:\n%.400s",
					pi, g.workers, g.batch, wantS, gotS)
			}
		}
	}
}

// TestTopKTiesAndDuplicates pins the fused top-k on a crafted input where
// sort keys tie, value-duplicates must fold annotations across the whole
// input, and lb/ub overlaps must not influence order (only SG does).
func TestTopKTiesAndDuplicates(t *testing.T) {
	rel := core.New(schema.New("a", "b"))
	add := func(sgA int64, loA, hiA int64, b int64, m core.Mult) {
		rel.Add(core.Tuple{Vals: rangeval.Tuple{
			rangeval.New(types.Int(loA), types.Int(sgA), types.Int(hiA)),
			rangeval.Certain(types.Int(b)),
		}, M: m})
	}
	add(2, 0, 9, 10, core.One)                       // wide range, SG 2
	add(1, 1, 1, 11, core.One)                       // certain 1
	add(2, 2, 2, 12, core.One)                       // ties SG 2 with the wide one
	add(1, 0, 5, 13, core.Mult{Lo: 0, SG: 1, Hi: 2}) // ties SG 1, overlapping range
	add(3, 3, 3, 14, core.One)
	add(2, 0, 9, 10, core.Mult{Lo: 1, SG: 2, Hi: 3}) // value-duplicate of the first: must merge
	db := core.DB{"t": rel}

	plan := &ra.Limit{N: 3, Child: &ra.OrderBy{Child: &ra.Scan{Table: "t"}, Keys: []int{0}}}
	want, err := core.Exec(context.Background(), plan, db, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 2, 1024} {
		got, err := Exec(context.Background(), plan, db, Options{BatchSize: batch, Exec: core.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if want.String() != got.String() {
			t.Fatalf("batch %d: top-k differs\nreference:\n%s\ngot:\n%s", batch, want, got)
		}
	}
}

// TestPipelinedCancellation: a mid-flight cancellation aborts a streaming
// pipeline (serial and with a parallel exchange) promptly with ctx.Err()
// and joins every producer goroutine.
func TestPipelinedCancellation(t *testing.T) {
	rows := 200000
	if testing.Short() {
		rows = 50000
	}
	db := seqDB(rows, 1<<30) // no early filter: the full stream flows
	plan := &ra.Limit{
		N: rows * 2,
		Child: &ra.Project{
			Cols:  []ra.ProjCol{{E: expr.Add(expr.Col(0, "k"), expr.Col(1, "v")), Name: "s"}},
			Child: &ra.Select{Child: &ra.Scan{Table: "t"}, Pred: expr.Leq(expr.Col(1, "v"), expr.CInt(1<<30))},
		},
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testutil.NoLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := Exec(ctx, plan, db, Options{Exec: core.Options{Workers: workers}})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v (after %s)", err, time.Since(start))
			}
		})
	}
}

// TestPreCancelledPipeline: an already-cancelled context must abort before
// any operator does work.
func TestPreCancelledPipeline(t *testing.T) {
	db := seqDB(64, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Exec(ctx, chainPlan(5), db, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestPlanSingleUse: a plan executes once; re-execution is an error
// instead of silently wrong (iterators hold consumed state).
func TestPlanSingleUse(t *testing.T) {
	db := seqDB(8, 3)
	p, err := Compile(&ra.Scan{Table: "t"}, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background()); err == nil {
		t.Fatal("second Execute succeeded, want error")
	}
}

// TestCompileErrors: nil plans and unknown tables fail at compile with the
// catalog enumerated.
func TestCompileErrors(t *testing.T) {
	db := seqDB(4, 2)
	if _, err := Compile(nil, db, Options{}); err == nil {
		t.Fatal("nil plan compiled")
	}
	var typedNil *ra.Scan
	if _, err := Compile(typedNil, db, Options{}); err == nil {
		t.Fatal("typed-nil plan compiled")
	}
	_, err := Compile(&ra.Scan{Table: "missing"}, db, Options{})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("unknown table error = %v", err)
	}
	if _, err := Compile(&ra.Select{Child: nil, Pred: expr.CBool(true)}, db, Options{}); err == nil {
		t.Fatal("nil child compiled")
	}
}

// TestAnalyzeStats: the instrumented plan reports per-operator rows,
// batches and time, and the counters are consistent with the data flow.
func TestAnalyzeStats(t *testing.T) {
	rows := 200
	db := seqDB(rows, 23)
	plan := chainPlan(10)
	p, err := Compile(plan, db, Options{Analyze: true, BatchSize: 32, Exec: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st == nil || st.Root == nil {
		t.Fatal("no stats collected")
	}
	if st.BatchSize != 32 {
		t.Fatalf("stats batch size = %d", st.BatchSize)
	}
	if st.Total <= 0 {
		t.Fatalf("total time %v", st.Total)
	}
	// Root is the limit: it emits exactly the result rows.
	if st.Root.Rows != int64(res.Len()) {
		t.Fatalf("root rows %d, result %d", st.Root.Rows, res.Len())
	}
	if len(st.Root.Children) != 1 {
		t.Fatalf("root children = %d", len(st.Root.Children))
	}
	// The scan at the bottom emitted the whole table in rows/batch batches.
	cur := st.Root
	for len(cur.Children) > 0 {
		cur = cur.Children[0]
	}
	if cur.Rows != int64(rows) {
		t.Fatalf("leaf rows %d, want %d", cur.Rows, rows)
	}
	if want := int64((rows + 31) / 32); cur.Batches != want {
		t.Fatalf("leaf batches %d, want %d", cur.Batches, want)
	}
	out := st.String()
	for _, frag := range []string{"execution: batch 32,", "Scan(t)", "stream", "rows="} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendered stats missing %q:\n%s", frag, out)
		}
	}
}

// TestExchangeOrder: a parallel exchange must reproduce the serial tuple
// order exactly even when later partitions finish first.
func TestExchangeOrder(t *testing.T) {
	rows := 4 * minPartitionRows
	db := seqDB(rows, 1<<30)
	plan := &ra.Select{Child: &ra.Scan{Table: "t"}, Pred: expr.Leq(expr.Col(1, "v"), expr.CInt(1<<30))}
	want, err := Exec(context.Background(), plan, db, Options{Exec: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Exec(context.Background(), plan, db, Options{Exec: core.Options{Workers: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatal("parallel exchange changed tuple order")
	}
}
