package audb

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/opt"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/sql"
)

// statsTable builds an uncertain table with rows over a small key domain.
func statsTable(name string, rows, domain int, rng *rand.Rand) *UncertainTable {
	t := NewUncertainTable(name, "a0", "a1")
	for i := 0; i < rows; i++ {
		k := int64(rng.Intn(domain))
		t.AddRow(RangeRow{
			CertainOf(Int(k)),
			CertainOf(Int(int64(i))),
		}, CertainMult(1))
	}
	return t
}

// adversarialJoinDB: two big dense tables and a tiny selective one; the
// query below writes the worst join order first.
func adversarialJoinDB(rng *rand.Rand) *Database {
	db := New()
	db.Add(statsTable("big1", 300, 15, rng))
	db.Add(statsTable("big2", 300, 15, rng))
	db.Add(statsTable("tiny", 8, 8, rng))
	return db
}

const adversarialJoinQuery = `SELECT big1.a1, big2.a1, tiny.a1 FROM big1, big2, tiny ` +
	`WHERE big1.a0 = big2.a0 AND big2.a1 = tiny.a0 AND tiny.a1 <= 3`

// TestTableStatsLifecycle: statistics follow registration — collected on
// first use, dropped with the table, replaced on re-registration, and
// refreshed by Analyze after appends.
func TestTableStatsLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := New()
	tbl := statsTable("t", 50, 5, rng)
	db.Add(tbl)

	ts, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 50 || len(ts.Cols) != 2 || ts.Cols[0].NDV != 5 {
		t.Fatalf("collected stats off: %+v", ts)
	}
	// Case-folded lookup, like every other catalog surface.
	if _, err := db.TableStats("T"); err != nil {
		t.Fatalf("case-folded stats lookup: %v", err)
	}

	// An append is invisible to the statistics until Analyze.
	tbl.AddRow(RangeRow{CertainOf(Int(99)), CertainOf(Int(99))}, CertainMult(1))
	ts, err = db.TableStats("t")
	if err != nil || ts.Rows != 50 {
		t.Fatalf("stats should be cached: %+v %v", ts, err)
	}
	ts, err = db.Analyze("t")
	if err != nil || ts.Rows != 51 {
		t.Fatalf("Analyze should recollect: %+v %v", ts, err)
	}

	// Replacement registers fresh statistics.
	db.Add(statsTable("t", 7, 3, rng))
	ts, err = db.TableStats("t")
	if err != nil || ts.Rows != 7 {
		t.Fatalf("stats after replacement: %+v %v", ts, err)
	}

	// Dropped tables never serve statistics again.
	db.Drop("t")
	if _, err := db.TableStats("t"); err == nil {
		t.Fatal("stats served for a dropped table")
	}
	if _, err := db.Analyze("t"); err == nil {
		t.Fatal("Analyze succeeded for a dropped table")
	}
}

// TestStatsLifecycleRace races Register/Drop/Analyze against concurrent
// QueryContext calls (run under -race): the statistics lifecycle must be
// race-clean, queries must keep executing over their snapshots, and once
// a drop completes the registry must not serve that table's stats.
func TestStatsLifecycleRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := adversarialJoinDB(rng)
	// Pre-built replacement tables so goroutines never mutate a shared
	// relation (only re-register different ones — the supported pattern).
	repl := make([]*UncertainTable, 4)
	for i := range repl {
		repl[i] = statsTable("big1", 100+i, 10, rng)
	}
	var mutators sync.WaitGroup
	for w := 0; w < 4; w++ {
		mutators.Add(1)
		go func(w int) {
			defer mutators.Done()
			for i := 0; i < 60; i++ {
				switch (w + i) % 4 {
				case 0:
					db.Add(repl[i%len(repl)])
				case 1:
					db.Analyze("big1") // may fail mid-drop; only races matter
				case 2:
					db.Drop("big1")
					db.Add(repl[(i+1)%len(repl)])
				default:
					db.TableStats("tiny")
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var queriers sync.WaitGroup
	queriers.Add(1)
	go func() {
		defer queriers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The query races the re-registrations: it must either plan
			// and run against a consistent snapshot or fail cleanly with
			// an unknown-table error from a mid-drop snapshot.
			res, err := db.QueryContext(context.Background(), adversarialJoinQuery, WithWorkers(2))
			if err == nil && res == nil {
				t.Error("nil result without error")
				return
			}
		}
	}()
	mutators.Wait()
	close(stop)
	queriers.Wait()

	db.Drop("big1")
	if _, err := db.TableStats("big1"); err == nil {
		t.Fatal("stats served for a dropped table after the race")
	}
}

// TestExplainShowsEstimatesAndReorder: the EXPLAIN trace shows the
// reorder rule firing on an adversarial join order and renders every
// operator of the final plan with a row estimate.
func TestExplainShowsEstimatesAndReorder(t *testing.T) {
	db := adversarialJoinDB(rand.New(rand.NewSource(3)))
	exp, err := db.Explain(adversarialJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	reordered := false
	for _, r := range exp.Rules {
		if r.Rule == "reorder-joins" {
			reordered = true
		}
	}
	if !reordered {
		t.Fatalf("reorder-joins did not fire:\n%s", exp)
	}
	for i, line := range strings.Split(strings.TrimSpace(exp.Optimized), "\n") {
		if !strings.Contains(line, "(est ") {
			t.Fatalf("optimized plan line %d lacks an estimate: %q\n%s", i, line, exp.Optimized)
		}
	}
	if text := exp.String(); !strings.Contains(text, "reorder-joins") || !strings.Contains(text, "(est ") {
		t.Fatalf("rendered explanation lacks cost info:\n%s", text)
	}
	// A compressed execution skips the cost pass: no estimates, no
	// reorder.
	exp, err = db.Explain(adversarialJoinQuery, WithJoinCompression(4))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exp.Optimized, "(est ") {
		t.Fatalf("compressed explanation still has estimates:\n%s", exp.Optimized)
	}
	for _, r := range exp.Rules {
		if r.Rule == "reorder-joins" {
			t.Fatal("reorder-joins fired under compression")
		}
	}
}

// TestExplainAnalyzeShowsEstimates: when the cost pass runs, EVERY
// operator row of the ExplainAnalyze trace carries an est value next to
// the actual rows; under compression, which skips the pass, the column
// shows the "-" placeholder.
func TestExplainAnalyzeShowsEstimates(t *testing.T) {
	db := adversarialJoinDB(rand.New(rand.NewSource(5)))
	queries := []string{
		adversarialJoinQuery,
		`SELECT a0, sum(a1) AS s FROM big1 WHERE a1 <= 100 GROUP BY a0`,
		`SELECT a1 FROM big1 ORDER BY a1 LIMIT 5`,
		`SELECT DISTINCT a0 FROM tiny`,
	}
	for _, q := range queries {
		exp, err := db.ExplainAnalyze(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if exp.Stats == nil || exp.Stats.Root == nil {
			t.Fatalf("%s: no stats", q)
		}
		out := exp.Stats.String()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: no operator rows:\n%s", q, out)
		}
		for _, line := range lines[1:] { // skip the execution header
			if !strings.Contains(line, "est=") || strings.Contains(line, "est=-") {
				t.Fatalf("%s: operator without estimate: %q\n%s", q, line, out)
			}
		}
	}
	// Compressed: the est column renders the placeholder.
	exp, err := db.ExplainAnalyze(context.Background(), queries[1], WithAggCompression(4))
	if err != nil {
		t.Fatal(err)
	}
	if out := exp.Stats.String(); !strings.Contains(out, "est=-") {
		t.Fatalf("compressed trace should show est=-:\n%s", out)
	}
}

// TestCostOnAdversarialJoinResultsIdentical is a coarse sanity check
// (not a benchmark): on the adversarial order, the session's cost-based
// plan must give the answer the reference executor gives for the
// rule-only plan. BenchmarkJoinReorderCostOn times the planned query.
func TestCostOnAdversarialJoinResultsIdentical(t *testing.T) {
	ctx := context.Background()
	db := adversarialJoinDB(rand.New(rand.NewSource(9)))
	snap := db.cat.Snapshot()
	cat := ra.CatalogMap(snap.Schemas())
	plan, err := sql.Compile(adversarialJoinQuery, cat)
	if err != nil {
		t.Fatal(err)
	}
	ruleOnly, err := opt.Optimize(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Exec(ctx, ruleOnly, snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.QueryContext(ctx, adversarialJoinQuery)
	if err != nil {
		t.Fatal(err)
	}
	if want.Sort().String() != got.Sort().String() {
		t.Fatal("cost-based plan changed the adversarial join's result")
	}
}
