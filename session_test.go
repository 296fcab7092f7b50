package audb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/testutil"
)

// randomDB builds a database with two random uncertain tables. Ranges,
// optional tuples and duplicate multiplicities are all exercised so the
// engine-equivalence corpus covers the attribute- and tuple-level
// uncertainty cases of the paper.
func randomDB(rng *rand.Rand, rows int) *Database {
	mk := func(name string, cols ...string) *UncertainTable {
		t := NewUncertainTable(name, cols...)
		for i := 0; i < rows; i++ {
			row := make(RangeRow, len(cols))
			for c := range cols {
				sg := int64(rng.Intn(6))
				switch rng.Intn(3) {
				case 0:
					row[c] = CertainOf(Int(sg))
				case 1:
					row[c] = Range(Int(sg-int64(rng.Intn(2))), Int(sg), Int(sg+int64(rng.Intn(3))))
				default:
					row[c] = Range(Int(0), Int(sg), Int(5))
				}
			}
			m := CertainMult(int64(1 + rng.Intn(2)))
			if rng.Intn(4) == 0 {
				m = Mult(0, 1, 1+int64(rng.Intn(2)))
			}
			t.AddRow(row, m)
		}
		return t
	}
	db := New()
	db.Add(mk("r", "a", "b"))
	db.Add(mk("s", "c", "d"))
	return db
}

// sessionCorpus is the query corpus for the dispatcher equivalence and
// prepared-statement tests: selection, projection expressions, grouping
// aggregation and an equi-join, all through the SQL front end.
var sessionCorpus = []string{
	`SELECT a, b FROM r WHERE a <= 3`,
	`SELECT a + b AS ab FROM r`,
	`SELECT b, sum(a) AS s, count(*) AS n FROM r GROUP BY b`,
	`SELECT min(a) AS lo, max(b) AS hi, avg(a) AS m FROM r`,
	`SELECT b, d FROM r JOIN s ON a = c`,
	`SELECT b, sum(d) AS sd FROM r JOIN s ON a = c GROUP BY b`,
}

// TestDispatcherEngineEquivalence is Theorem 8 cross-checked through the
// new dispatcher: WithEngine(EngineNative) and WithEngine(EngineRewrite)
// must produce identical AU-relations on the property-test corpus, and
// the selected-guess world of either must equal the EngineSGW answer.
func TestDispatcherEngineEquivalence(t *testing.T) {
	ctx := context.Background()
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial * 131)))
		db := randomDB(rng, 2+rng.Intn(6))
		for _, q := range sessionCorpus {
			native, err := db.QueryContext(ctx, q, WithEngine(EngineNative))
			if err != nil {
				t.Fatalf("[trial %d] %s: native: %v", trial, q, err)
			}
			rewritten, err := db.QueryContext(ctx, q, WithEngine(EngineRewrite))
			if err != nil {
				t.Fatalf("[trial %d] %s: rewrite: %v", trial, q, err)
			}
			if native.Sort().String() != rewritten.Sort().String() {
				t.Fatalf("[trial %d] %s: native vs rewrite mismatch:\n%s\nvs\n%s",
					trial, q, native, rewritten)
			}
			sgw, err := db.QueryContext(ctx, q, WithEngine(EngineSGW))
			if err != nil {
				t.Fatalf("[trial %d] %s: sgw: %v", trial, q, err)
			}
			if !native.SGW().Equal(sgw.SGW()) {
				t.Fatalf("[trial %d] %s: SGW embedding broken:\n%s\nvs\n%s",
					trial, q, native.SGW(), sgw.SGW())
			}
		}
	}
}

// TestQueryOptionsOverrideDefaults: per-query options must win over
// SetOptions, and results must be identical across worker counts and
// engines regardless of how the options were supplied.
func TestQueryOptionsOverrideDefaults(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(3)), 8)
	q := sessionCorpus[5]
	db.SetOptions(Options{Workers: 1})
	serial, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := db.QueryContext(ctx, q, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Sort().String() != parallel.Sort().String() {
		t.Fatal("worker count changed the result")
	}
	// Compression options trade tightness for time but must keep bounding:
	// the possible size may only grow, the certain size only shrink.
	compressed, err := db.QueryContext(ctx, q, WithJoinCompression(2), WithAggCompression(2))
	if err != nil {
		t.Fatal(err)
	}
	if compressed.PossibleSize() < serial.PossibleSize() {
		t.Fatalf("compression tightened the possible size: %d < %d",
			compressed.PossibleSize(), serial.PossibleSize())
	}
	if compressed.CertainSize() > serial.CertainSize() {
		t.Fatalf("compression grew the certain size: %d > %d",
			compressed.CertainSize(), serial.CertainSize())
	}
}

// TestHugeJoinCompressionTarget: a compression target far above the input
// size (a remote client can send any int) must not make the split-point
// loop run for its full length.
func TestHugeJoinCompressionTarget(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(3)), 12)
	start := time.Now()
	if _, err := db.QueryContext(ctx, sessionCorpus[4], WithJoinCompression(1<<40)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("query with JoinCompression 1<<40 took %v", d)
	}
}

// TestStmtConcurrentExec: one prepared statement executed from many
// goroutines must be race-clean and bit-identical to unprepared
// execution, on every engine.
func TestStmtConcurrentExec(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(11)), 10)
	for _, q := range sessionCorpus {
		stmt, err := db.Prepare(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if stmt.Text() != q || stmt.Plan() == nil {
			t.Fatalf("%s: statement accessors", q)
		}
		for _, eng := range []Engine{EngineNative, EngineRewrite, EngineSGW} {
			want, err := db.QueryContext(ctx, q, WithEngine(eng))
			if err != nil {
				t.Fatalf("%s [%s]: unprepared: %v", q, eng, err)
			}
			wantStr := want.Sort().String()
			const goroutines = 8
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						res, err := stmt.Exec(ctx, WithEngine(eng))
						if err != nil {
							errs[g] = err
							return
						}
						if got := res.Sort().String(); got != wantStr {
							errs[g] = fmt.Errorf("prepared result differs:\n%s\nvs\n%s", got, wantStr)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s [%s]: %v", q, eng, err)
				}
			}
		}
	}
}

// TestStmtRewriteRetriesAfterFailure: a failed Section 10 rewrite (e.g.
// a referenced table was dropped) must not be cached — once the catalog
// is repaired, the same Stmt succeeds, staying equivalent to unprepared
// execution.
func TestStmtRewriteRetriesAfterFailure(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(5)), 4)
	stmt, err := db.Prepare(`SELECT b, sum(a) AS s FROM r GROUP BY b`)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	db.Drop("r")
	if _, err := stmt.Exec(ctx, WithEngine(EngineRewrite)); err == nil {
		t.Fatal("rewrite over a dropped table should fail")
	}
	db.AddRelation("r", rel)
	res, err := stmt.Exec(ctx, WithEngine(EngineRewrite))
	if err != nil {
		t.Fatalf("rewrite should succeed after the table is restored: %v", err)
	}
	want, err := db.QueryContext(ctx, stmt.Text(), WithEngine(EngineRewrite))
	if err != nil {
		t.Fatal(err)
	}
	if res.Sort().String() != want.Sort().String() {
		t.Fatal("recovered prepared result differs from unprepared")
	}
}

// cancelDB builds a database whose join is expensive: every join key
// spans the whole key domain, so every pair of rows is a join candidate.
// cancelQuery's residual conjunct keeps only pairs with both v = 0.
func cancelDB(rows int) *Database {
	mk := func(name string) *UncertainTable {
		t := NewUncertainTable(name, "k", "v")
		for i := 0; i < rows; i++ {
			t.AddRow(RangeRow{
				Range(Int(0), Int(int64(i)), Int(int64(rows))),
				CertainOf(Int(int64(i % 97))),
			}, CertainMult(1))
		}
		return t
	}
	db := New()
	db.Add(mk("l"))
	db.Add(mk("r"))
	return db
}

const cancelQuery = `SELECT l.v, count(*) AS n FROM l JOIN r ON l.k = r.k AND l.v + r.v = 0 GROUP BY l.v`

// TestQueryContextCancellation: a long-running join cancelled mid-flight
// must return context.Canceled well under a second, in both serial and
// parallel modes, without leaking goroutines.
func TestQueryContextCancellation(t *testing.T) {
	rows := 3000
	if testing.Short() {
		rows = 1200
	}
	db := cancelDB(rows)
	q := cancelQuery
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testutil.NoLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := db.QueryContext(ctx, q, WithWorkers(workers))
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v (after %s)", err, elapsed)
			}
			if elapsed > time.Second {
				t.Fatalf("cancellation took %s, want well under a second", elapsed)
			}
		})
	}
	// A context cancelled before the call returns immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: want context.Canceled, got %v", err)
	}
	// Deadline expiry surfaces as context.DeadlineExceeded.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if _, err := db.QueryContext(dctx, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: want context.DeadlineExceeded, got %v", err)
	}
}

// TestCancellationAllEngines: every engine behind the dispatcher honours
// cancellation.
func TestCancellationAllEngines(t *testing.T) {
	rows := 1500
	if testing.Short() {
		rows = 800
	}
	db := cancelDB(rows)
	q := cancelQuery
	for _, eng := range []Engine{EngineNative, EngineRewrite, EngineSGW} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := db.QueryContext(ctx, q, WithEngine(eng)); !errors.Is(err, context.Canceled) {
			t.Errorf("engine %s: want context.Canceled, got %v", eng, err)
		}
	}
}

// TestCatalogConcurrency: concurrent registration, listing and querying
// must be race-clean (run under -race) and Tables must stay sorted.
func TestCatalogConcurrency(t *testing.T) {
	db := New()
	seedTbl := NewUncertainTable("t0", "a")
	seedTbl.AddCertainRow(Int(1))
	db.Add(seedTbl)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 1; i <= 50; i++ {
			tbl := NewUncertainTable(fmt.Sprintf("t%d", i), "a")
			tbl.AddCertainRow(Int(int64(i)))
			db.Add(tbl)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			names := db.Tables()
			for j := 1; j < len(names); j++ {
				if names[j-1] >= names[j] {
					errs[1] = fmt.Errorf("Tables not sorted: %v", names)
					return
				}
			}
			db.SetOptions(Options{Workers: 1})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := db.QueryContext(ctx, `SELECT a FROM t0`); err != nil {
				errs[2] = err
				return
			}
		}
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCatalogReplaceRace: replacing a table with a different-arity
// relation while it is being queried must never desynchronize plan and
// data — compilation and execution share one catalog snapshot, so each
// query sees either the old or the new table wholesale (errors are fine;
// panics are not).
func TestCatalogReplaceRace(t *testing.T) {
	db := New()
	wide := NewUncertainTable("t", "a", "b", "c")
	wide.AddCertainRow(Int(1), Int(2), Int(3))
	narrow := NewUncertainTable("t", "a")
	narrow.AddCertainRow(Int(1))
	db.Add(wide)
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				db.Add(narrow)
			} else {
				db.Add(wide)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// Valid against the wide schema only; the narrow catalog state
			// must yield a clean planning error, never a panic.
			_, _ = db.QueryContext(ctx, `SELECT c FROM t`)
		}
	}()
	wg.Wait()
}

// TestUnknownTableDiagnostics: unknown-table errors enumerate the catalog
// deterministically, in sorted order.
func TestUnknownTableDiagnostics(t *testing.T) {
	db := New()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		tbl := NewUncertainTable(name, "a")
		tbl.AddCertainRow(Int(1))
		db.Add(tbl)
	}
	_, err := db.Relation("missing")
	if err == nil || !strings.Contains(err.Error(), "alpha, mid, zeta") {
		t.Fatalf("Relation error should list tables in sorted order, got: %v", err)
	}
	if got := db.Tables(); strings.Join(got, ",") != "alpha,mid,zeta" {
		t.Fatalf("Tables() = %v, want sorted", got)
	}
	_, err = db.QueryContext(context.Background(), `SELECT a FROM missing`)
	if err == nil {
		t.Fatal("unknown table should error")
	}
	db.Drop("mid")
	if got := db.Tables(); strings.Join(got, ",") != "alpha,zeta" {
		t.Fatalf("Drop: Tables() = %v", got)
	}
	empty := New()
	if _, err := empty.Relation("x"); err == nil || !strings.Contains(err.Error(), "no tables registered") {
		t.Fatalf("empty-catalog error: %v", err)
	}
}

// TestNilPlanAllEngines: nil and typed-nil plans error cleanly (no
// panic) on every engine behind the dispatcher.
func TestNilPlanAllEngines(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(1)), 2)
	ctx := context.Background()
	for _, eng := range []Engine{EngineNative, EngineRewrite, EngineSGW} {
		if _, err := db.ExecPlan(ctx, nil, WithEngine(eng)); err == nil {
			t.Errorf("engine %s: nil plan should error", eng)
		}
		var typedNil *ra.Scan
		if _, err := db.ExecPlan(ctx, typedNil, WithEngine(eng)); err == nil {
			t.Errorf("engine %s: typed-nil plan should error", eng)
		}
		nested := &ra.Distinct{Child: (*ra.Scan)(nil)}
		if _, err := db.ExecPlan(ctx, nested, WithEngine(eng)); err == nil {
			t.Errorf("engine %s: nested typed-nil node should error, not panic", eng)
		}
	}
}

// TestScanSubsetIgnoresUnrelatedTables: the rewrite and SGW paths only
// touch the tables the plan scans — a huge unrelated table in the catalog
// must not change the result (and, per scanSubset, is not encoded).
func TestScanSubsetIgnoresUnrelatedTables(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(9)), 6)
	q := sessionCorpus[2]
	wantRewrite, err := db.QueryContext(ctx, q, WithEngine(EngineRewrite))
	if err != nil {
		t.Fatal(err)
	}
	wantSGW, err := db.QueryContext(ctx, q, WithEngine(EngineSGW))
	if err != nil {
		t.Fatal(err)
	}
	unrelated := NewUncertainTable("unrelated", "x")
	for i := 0; i < 100; i++ {
		unrelated.AddCertainRow(Int(int64(i)))
	}
	db.Add(unrelated)
	gotRewrite, err := db.QueryContext(ctx, q, WithEngine(EngineRewrite))
	if err != nil {
		t.Fatal(err)
	}
	gotSGW, err := db.QueryContext(ctx, q, WithEngine(EngineSGW))
	if err != nil {
		t.Fatal(err)
	}
	if gotRewrite.Sort().String() != wantRewrite.Sort().String() {
		t.Fatal("unrelated table changed the rewrite result")
	}
	if !gotSGW.SGW().Equal(wantSGW.SGW()) {
		t.Fatal("unrelated table changed the SGW result")
	}
	// Unknown tables still get the full sorted catalog in the error.
	_, err = db.QueryContext(ctx, `SELECT x FROM nope`)
	if err == nil {
		t.Fatal("unknown table should error")
	}
}

// TestMixedCaseTableNames: planning resolves names case-insensitively,
// so execution must too — a table registered with mixed case is
// queryable in lowercase on every engine.
func TestMixedCaseTableNames(t *testing.T) {
	db := New()
	tbl := NewUncertainTable("Locales", "size")
	tbl.AddCertainRow(Str("metro"))
	db.Add(tbl)
	ctx := context.Background()
	for _, eng := range []Engine{EngineNative, EngineRewrite, EngineSGW} {
		res, err := db.QueryContext(ctx, `SELECT size FROM locales`, WithEngine(eng))
		if err != nil {
			t.Fatalf("engine %s: %v", eng, err)
		}
		if res.Len() != 1 {
			t.Fatalf("engine %s: %d rows", eng, res.Len())
		}
	}
	// Relation and Drop resolve names the same way queries do.
	if _, err := db.Relation("locales"); err != nil {
		t.Fatalf("Relation should case-fold like the planner: %v", err)
	}
	db.Drop("LOCALES")
	if len(db.Tables()) != 0 {
		t.Fatalf("Drop should case-fold like the planner: %v", db.Tables())
	}
}

// TestEngineNames: Engine round-trips through String/ParseEngine.
func TestEngineNames(t *testing.T) {
	for _, eng := range []Engine{EngineNative, EngineRewrite, EngineSGW} {
		got, err := ParseEngine(eng.String())
		if err != nil || got != eng {
			t.Errorf("ParseEngine(%q) = %v, %v", eng.String(), got, err)
		}
	}
	if e, err := ParseEngine(""); err != nil || e != EngineNative {
		t.Errorf("empty engine name should default to native, got %v, %v", e, err)
	}
	if _, err := ParseEngine("postgres"); err == nil {
		t.Error("unknown engine name should error")
	}
	if !strings.Contains(Engine(42).String(), "42") {
		t.Error("out-of-range engine String")
	}
}
