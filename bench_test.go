package audb_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/audb/audb"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/bench"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/synth"
	"github.com/audb/audb/internal/translate"
)

// One benchmark per table/figure of the paper's evaluation. Each runs the
// corresponding experiment of the harness (quick sizes; `cmd/audbench
// -full` regenerates the full-size tables).

func benchFigure(b *testing.B, id string) {
	e, ok := bench.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := e.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig10aPDBenchUncertainty(b *testing.B) { benchFigure(b, "fig10a") }
func BenchmarkFig10bPDBenchScale(b *testing.B)       { benchFigure(b, "fig10b") }
func BenchmarkFig11AggChain(b *testing.B)            { benchFigure(b, "fig11") }
func BenchmarkFig12TPCH(b *testing.B)                { benchFigure(b, "fig12") }
func BenchmarkFig13aGroupBy(b *testing.B)            { benchFigure(b, "fig13a") }
func BenchmarkFig13bAggFuncs(b *testing.B)           { benchFigure(b, "fig13b") }
func BenchmarkFig13cAttrRange(b *testing.B)          { benchFigure(b, "fig13c") }
func BenchmarkFig13dCompression(b *testing.B)        { benchFigure(b, "fig13d") }
func BenchmarkFig14JoinOpt(b *testing.B)             { benchFigure(b, "fig14") }
func BenchmarkFig15AggAccuracy(b *testing.B)         { benchFigure(b, "fig15") }
func BenchmarkFig16MultiJoin(b *testing.B)           { benchFigure(b, "fig16") }
func BenchmarkFig17RealWorld(b *testing.B)           { benchFigure(b, "fig17") }

// ---- operator micro-benchmarks ----------------------------------------

func microData(rows int, unc float64) (bag.DB, core.DB) {
	det := bag.DB{"t": synth.WideTable(rows, 6, 1000, 7)}
	x := synth.Inject(det, synth.InjectConfig{
		CellProb: unc, MaxAlts: 4, RangeFrac: 0.05, Seed: 8,
	})
	return det, core.DB{"t": translate.XDB(x["t"])}
}

func BenchmarkSelectDeterministic(b *testing.B) {
	det, _ := microData(20000, 0.05)
	plan := &ra.Select{Child: &ra.Scan{Table: "t"},
		Pred: expr.Lt(expr.Col(1, "a1"), expr.CInt(500))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bag.Exec(context.Background(), plan, det); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSelectAUDB(b *testing.B, workers int) {
	_, audbDB := microData(20000, 0.05)
	plan := &ra.Select{Child: &ra.Scan{Table: "t"},
		Pred: expr.Lt(expr.Col(1, "a1"), expr.CInt(500))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exec(context.Background(), plan, audbDB, core.Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial (Workers: 1) vs parallel (Workers: 0 = one per CPU) pairs for the
// hot operators; identical results, different wall-clock.
func BenchmarkSelectAUDB(b *testing.B)         { benchSelectAUDB(b, 1) }
func BenchmarkSelectAUDBParallel(b *testing.B) { benchSelectAUDB(b, 0) }

func benchAggAUDB(b *testing.B, workers int) {
	_, audbDB := microData(20000, 0.05)
	plan := &ra.Agg{Child: &ra.Scan{Table: "t"}, GroupBy: []int{0},
		Aggs: []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(1, "a1"), Name: "s"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exec(context.Background(), plan, audbDB, core.Options{AggCompression: 64, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggAUDB(b *testing.B)         { benchAggAUDB(b, 1) }
func BenchmarkAggAUDBParallel(b *testing.B) { benchAggAUDB(b, 0) }

func benchJoin(b *testing.B, opts core.Options, rows int) {
	t1, t2 := synth.JoinPair(rows, int64(rows), 7)
	x := synth.Inject(bag.DB{"t1": t1, "t2": t2}, synth.InjectConfig{
		CellProb: 0.03, MaxAlts: 4, RangeFrac: 0.02, EligibleCols: []int{0, 1}, Seed: 8,
	})
	audbDB := core.DB{"t1": translate.XDB(x["t1"]), "t2": translate.XDB(x["t2"])}
	plan := &ra.Join{Left: &ra.Scan{Table: "t1"}, Right: &ra.Scan{Table: "t2"},
		Cond: expr.Eq(expr.Col(0, ""), expr.Col(2, ""))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Exec(context.Background(), plan, audbDB, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinAUDBExact(b *testing.B) { benchJoin(b, core.Options{Workers: 1}, 4000) }
func BenchmarkJoinAUDBExactParallel(b *testing.B) {
	benchJoin(b, core.Options{}, 4000)
}
func BenchmarkJoinAUDBCompressed(b *testing.B) {
	benchJoin(b, core.Options{JoinCompression: 32, Workers: 1}, 4000)
}
func BenchmarkJoinAUDBCompressedParallel(b *testing.B) {
	benchJoin(b, core.Options{JoinCompression: 32}, 4000)
}
func BenchmarkJoinAUDBNaive(b *testing.B) {
	benchJoin(b, core.Options{NaiveJoin: true, Workers: 1}, 1000)
}
func BenchmarkJoinAUDBNaiveParallel(b *testing.B) {
	benchJoin(b, core.Options{NaiveJoin: true}, 1000)
}

// BenchmarkQueryThroughput measures concurrent independent queries (each
// evaluated serially), the many-clients regime of the worker-pool design:
// parallelism across queries instead of within one.
func BenchmarkQueryThroughput(b *testing.B) {
	_, audbDB := microData(20000, 0.05)
	plan := &ra.Select{Child: &ra.Scan{Table: "t"},
		Pred: expr.Lt(expr.Col(1, "a1"), expr.CInt(500))}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := core.Exec(context.Background(), plan, audbDB, core.Options{Workers: 1}); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkRewriteMiddleware(b *testing.B) {
	_, audbDB := microData(5000, 0.05)
	plan := &ra.Agg{Child: &ra.Scan{Table: "t"}, GroupBy: []int{0},
		Aggs: []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(1, "a1"), Name: "s"}}}
	db := audb.New()
	for name, rel := range audbDB {
		db.AddRelation(name, rel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExecPlan(context.Background(), plan); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- session API micro-benchmarks -------------------------------------

// preparedBenchDB builds the small-table regime where the SQL front end
// is a visible fraction of each execution — the case Prepare exists for.
func preparedBenchDB() (*audb.Database, string) {
	det, _ := microData(256, 0.05)
	db := audb.New()
	db.AddRelation("t", core.FromDeterministic(det["t"]))
	db.SetOptions(audb.Options{Workers: 1})
	return db, `SELECT a0, sum(a1) AS s, count(*) AS n FROM t WHERE a2 > 10 GROUP BY a0`
}

// BenchmarkQueryUnprepared is the baseline: parse + plan + execute per
// call via the dispatcher.
func BenchmarkQueryUnprepared(b *testing.B) {
	db, q := preparedBenchDB()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStmtExec measures the same query with the plan cached by
// Prepare; the delta against BenchmarkQueryUnprepared is the front-end
// cost a prepared statement amortizes away.
func BenchmarkStmtExec(b *testing.B) {
	db, q := preparedBenchDB()
	stmt, err := db.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Exec(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStmtExecConcurrent hammers one shared Stmt from all procs —
// the many-clients regime of a prepared statement.
func BenchmarkStmtExecConcurrent(b *testing.B) {
	db, q := preparedBenchDB()
	stmt, err := db.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := stmt.Exec(ctx); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkSQLCompile(b *testing.B) {
	det, _ := microData(10, 0)
	db := audb.New()
	db.AddRelation("t", core.FromDeterministic(det["t"]))
	q := `SELECT a0, sum(a1) AS s, count(*) AS c FROM t WHERE a2 > 10 GROUP BY a0 HAVING sum(a1) > 100 ORDER BY a0`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Plan(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranslateXDB(b *testing.B) {
	det := bag.DB{"t": synth.WideTable(20000, 6, 1000, 7)}
	x := synth.Inject(det, synth.InjectConfig{CellProb: 0.05, MaxAlts: 8, Seed: 8})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = translate.XDB(x["t"])
	}
}

var benchSink fmt.Stringer

// ---- cost-based planning micro-benchmarks -----------------------------

// joinReorderDB builds the adversarial join-order workload of the cbo
// experiment at micro-benchmark size: two large dense tables written
// first, a tiny selective table last.
func joinReorderDB() (*audb.Database, string) {
	db := audb.New()
	t1, t2 := synth.JoinPair(1200, 75, 11)
	t3, _ := synth.JoinPair(12, 12, 12)
	db.AddRelation("t1", core.FromDeterministic(t1))
	db.AddRelation("t2", core.FromDeterministic(t2))
	db.AddRelation("t3", core.FromDeterministic(t3))
	q := `SELECT t1.a1, t2.a1, t3.a1 FROM t1, t2, t3 ` +
		`WHERE t1.a0 = t2.a0 AND t2.a1 = t3.a0 AND t3.a1 <= 6`
	return db, q
}

// BenchmarkJoinReorderCostOn measures the cost-based planner on an
// adversarial 3-table join order.
func BenchmarkJoinReorderCostOn(b *testing.B) {
	db, q := joinReorderDB()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinReorderPlanOnly isolates the planning overhead the cost
// pass adds per execution (statistics are cached; the pass is tree work).
func BenchmarkJoinReorderPlanOnly(b *testing.B) {
	db, q := joinReorderDB()
	exp, err := db.Explain(q)
	if err != nil {
		b.Fatal(err)
	}
	benchSink = exp
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := db.Explain(q)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = e
	}
}
