package audb

import (
	"context"
	"math/rand"
	"strings"
	"testing"
)

// TestExecModeEquivalence is the session-level acceptance property of the
// physical layer: for a random query corpus, WithExecMode(ExecPipelined)
// and WithExecMode(ExecMaterialized) produce bit-identical results on all
// three engines (the deterministic engines ignore the mode but must not
// misbehave under it), serial and parallel, prepared and unprepared.
func TestExecModeEquivalence(t *testing.T) {
	ctx := context.Background()
	trials := 5
	if testing.Short() {
		trials = 2
	}
	engines := []Engine{EngineNative, EngineRewrite, EngineSGW}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*613 + 17)))
		db := randomDB(rng, 2+rng.Intn(6))
		for _, q := range optCorpus(rng) {
			for _, eng := range engines {
				for _, workers := range []int{1, 4} {
					mat, errM := db.QueryContext(ctx, q,
						WithEngine(eng), WithWorkers(workers), WithExecMode(ExecMaterialized))
					pipe, errP := db.QueryContext(ctx, q,
						WithEngine(eng), WithWorkers(workers), WithExecMode(ExecPipelined))
					if (errM == nil) != (errP == nil) {
						t.Fatalf("[trial %d] %s [%s workers=%d]: exec mode changed acceptance: mat=%v pipe=%v",
							trial, q, eng, workers, errM, errP)
					}
					if errM != nil {
						continue // e.g. DISTINCT on the rewrite middleware
					}
					if mat.Sort().String() != pipe.Sort().String() {
						t.Fatalf("[trial %d] %s [%s workers=%d]: exec mode changed the result:\n%s\nvs\n%s",
							trial, q, eng, workers, mat, pipe)
					}
				}
			}
			// Prepared execution composes with the mode option.
			stmt, err := db.Prepare(q)
			if err != nil {
				t.Fatalf("[trial %d] prepare %s: %v", trial, q, err)
			}
			want, err := stmt.Exec(ctx, WithExecMode(ExecMaterialized))
			if err != nil {
				continue
			}
			got, err := stmt.Exec(ctx, WithExecMode(ExecPipelined))
			if err != nil {
				t.Fatalf("[trial %d] %s: prepared pipelined: %v", trial, q, err)
			}
			if want.Sort().String() != got.Sort().String() {
				t.Fatalf("[trial %d] %s: prepared exec modes differ", trial, q)
			}
		}
	}
}

// TestPipelinedIsDefault: a plain QueryContext call must behave as
// WithExecMode(ExecPipelined).
func TestPipelinedIsDefault(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(77)), 6)
	q := `SELECT r.b, s.d FROM r, s WHERE r.a = s.c ORDER BY r.b LIMIT 4`
	def, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := db.QueryContext(ctx, q, WithExecMode(ExecPipelined))
	if err != nil {
		t.Fatal(err)
	}
	if def.Sort().String() != pipe.Sort().String() {
		t.Fatal("default execution differs from WithExecMode(ExecPipelined)")
	}
	if ExecPipelined.String() != "pipelined" || ExecMaterialized.String() != "materialized" {
		t.Fatal("ExecMode.String")
	}
}

// TestExplainAnalyze: the ANALYZE mode executes the query and attaches
// per-operator counters; the rendering includes the operator tree.
func TestExplainAnalyze(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(5)), 8)
	q := `SELECT r.b, s.d FROM r, s WHERE r.a = s.c AND r.b <= 3`
	exp, err := db.ExplainAnalyze(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Stats == nil || exp.Stats.Root == nil {
		t.Fatal("ExplainAnalyze returned no stats")
	}
	if exp.Plan == "" || exp.Optimized == "" {
		t.Fatal("ExplainAnalyze lost the optimizer trace")
	}
	text := exp.String()
	for _, want := range []string{"execution: batch ", "rep=", "rows=", "batches=", "vec=", "time="} {
		if !strings.Contains(text, want) {
			t.Fatalf("analyze rendering missing %q:\n%s", want, text)
		}
	}
	// Counter sanity: every operator reports the rows it emitted; the join
	// is a materialize point, the scans stream.
	if !strings.Contains(text, "materialize") || !strings.Contains(text, "stream") {
		t.Fatalf("expected both strategies in:\n%s", text)
	}

	// The reference executor is not instrumented: ExplainAnalyze and
	// Trace reject it instead of silently measuring the pipeline.
	if _, err := db.ExplainAnalyze(ctx, q, WithExecMode(ExecMaterialized)); err == nil ||
		!strings.Contains(err.Error(), "pipelined executor only") {
		t.Fatalf("ExplainAnalyze under ExecMaterialized: err = %v, want rejection", err)
	}
	if _, err := db.Trace(ctx, q, WithExecMode(ExecMaterialized)); err == nil ||
		!strings.Contains(err.Error(), "pipelined executor only") {
		t.Fatalf("Trace under ExecMaterialized: err = %v, want rejection", err)
	}

	// Non-native engines are not instrumented.
	if _, err := db.ExplainAnalyze(ctx, q, WithEngine(EngineSGW)); err == nil {
		t.Fatal("ExplainAnalyze on EngineSGW should error")
	}
	// Compile errors propagate.
	if _, err := db.ExplainAnalyze(ctx, `SELECT nope FROM r`); err == nil {
		t.Fatal("unknown column should error")
	}
}

// TestExplainAnalyzeColumnar: over a registered (columnar) table, the
// trace reports the columnar batch representation and its selection-vector
// density (a scan emits full batches, density 1.00). Every registered
// table is columnar, so the row batches of a dense scan are covered by
// internal/phys's tests over dense core.DBs.
func TestExplainAnalyzeColumnar(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(12)), 12)
	q := `SELECT a, b FROM r WHERE a <= 3`
	exp, err := db.ExplainAnalyze(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	text := exp.String()
	if !strings.Contains(text, "rep=col") || !strings.Contains(text, "vec=1.00") {
		t.Fatalf("sparse-scan trace missing columnar representation:\n%s", text)
	}
}
