package audb

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/audb/audb/internal/core"
)

// mostlyCertainRows generates rows for a two-column table where the first
// column is always certain and the second is uncertain in roughly one row
// out of ten — the ≥90%-certain regime the sparse representation targets.
// A sprinkling of certain nulls and uncertain multiplicities exercises the
// fast-path disqualification gates (a flat column with nulls, a triple
// multiplicity) without tipping the table dense.
type testRow struct {
	vals RangeRow
	m    Multiplicity
}

func mostlyCertainRows(rows int, rng *rand.Rand) []testRow {
	out := make([]testRow, 0, rows)
	for i := 0; i < rows; i++ {
		a := CertainOf(Int(int64(rng.Intn(6))))
		b := CertainOf(Int(int64(rng.Intn(6))))
		switch rng.Intn(10) {
		case 0:
			sg := int64(rng.Intn(6))
			b = Range(Int(sg-1), Int(sg), Int(sg+int64(rng.Intn(3))))
		case 1:
			b = CertainOf(Null())
		}
		m := CertainMult(int64(1 + rng.Intn(2)))
		if rng.Intn(12) == 0 {
			m = Mult(0, 1, 2)
		}
		out = append(out, testRow{vals: RangeRow{a, b}, m: m})
	}
	return out
}

// storageDB builds a database holding tables r(a,b) and s(c,d) from the
// given row sets under an explicit storage mode. Each call builds fresh
// UncertainTables: a relation is compacted in place on first registration,
// so two databases with different policies must never share one.
func storageDB(mode StorageMode, rrows, srows []testRow) *Database {
	db := New()
	db.SetStoragePolicy(StoragePolicy{Mode: mode})
	mk := func(name string, rows []testRow, cols ...string) {
		t := NewUncertainTable(name, cols...)
		for _, row := range rows {
			t.AddRow(row.vals, row.m)
		}
		db.Add(t)
	}
	mk("r", rrows, "a", "b")
	mk("s", srows, "c", "d")
	return db
}

// TestSparseDenseEquivalence is the tentpole acceptance property: on
// mostly-certain data, a force-sparse database and a force-dense database
// produce bit-identical results for the full optimizer corpus across all
// three engines, serial and parallel, pipelined and materialized. The
// sparse side takes the certain-only fast paths wherever its gates allow;
// any divergence from the dense kernels fails here before the sparse
// bench experiment is allowed to time them.
func TestSparseDenseEquivalence(t *testing.T) {
	ctx := context.Background()
	trials := 4
	if testing.Short() {
		trials = 2
	}
	engines := []Engine{EngineNative, EngineRewrite, EngineSGW}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*877 + 29)))
		rrows := mostlyCertainRows(8+rng.Intn(20), rng)
		srows := mostlyCertainRows(8+rng.Intn(20), rng)
		dense := storageDB(StorageForceDense, rrows, srows)
		sparse := storageDB(StorageForceSparse, rrows, srows)

		// The representations must actually differ, or the test is vacuous.
		if rel, _ := dense.Relation("r"); rel.IsSparse() {
			t.Fatal("force-dense database compacted a table")
		}
		if rel, _ := sparse.Relation("r"); !rel.IsSparse() {
			t.Fatal("force-sparse database kept a table dense")
		}

		corpus := append(optCorpus(rng), sessionCorpus...)
		for _, q := range corpus {
			for _, eng := range engines {
				for _, workers := range []int{1, 4} {
					for _, em := range []ExecMode{ExecPipelined, ExecMaterialized} {
						opts := []QueryOption{WithEngine(eng), WithWorkers(workers), WithExecMode(em)}
						want, errD := dense.QueryContext(ctx, q, opts...)
						got, errS := sparse.QueryContext(ctx, q, opts...)
						if (errD == nil) != (errS == nil) {
							t.Fatalf("[trial %d] %s [%s workers=%d %s]: representation changed acceptance: dense=%v sparse=%v",
								trial, q, eng, workers, em, errD, errS)
						}
						if errD != nil {
							continue // e.g. DISTINCT on the rewrite middleware
						}
						if want.Sort().String() != got.Sort().String() {
							t.Fatalf("[trial %d] %s [%s workers=%d %s]: sparse result diverged:\n%s\nvs\n%s",
								trial, q, eng, workers, em, want, got)
						}
					}
				}
			}
		}
	}
}

// TestStorageRepresentationFlip covers the representation lifecycle: a
// certain table compacts on registration, goes dense the moment in-place
// updates make it uncertain, is re-evaluated by Analyze in both
// directions, and honors per-table overrides — with every state change
// visible in the reported statistics and none of them changing a query's
// answer.
func TestStorageRepresentationFlip(t *testing.T) {
	ctx := context.Background()
	const q = `SELECT a, b FROM t WHERE a <= 3`

	db := New()
	tbl := NewUncertainTable("t", "a", "b")
	for i := 0; i < 40; i++ {
		tbl.AddRow(RangeRow{CertainOf(Int(int64(i % 7))), CertainOf(Int(int64(i)))}, CertainMult(1))
	}
	db.Add(tbl)

	ts, err := db.TableStats("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Storage != core.ReprSparse || ts.FlatCols != 2 || !ts.MultFlat {
		t.Fatalf("certain table should register sparse: %+v", ts)
	}
	if !strings.Contains(ts.String(), "storage: sparse (2/2 flat columns, flat multiplicities)") {
		t.Fatalf("stats rendering lacks the storage line:\n%s", ts)
	}
	want, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantText := want.Sort().String()

	// In-place updates that introduce uncertainty densify the relation
	// immediately — the flat columns are gone before the next query can
	// observe the new rows, never after.
	for i := 0; i < 60; i++ {
		tbl.AddRow(RangeRow{Range(Int(0), Int(int64(i%7)), Int(6)), CertainOf(Int(int64(i)))}, Mult(0, 1, 1))
	}
	if rel, _ := db.Relation("t"); rel.IsSparse() {
		t.Fatal("uncertain updates left the relation sparse")
	}

	// Analyze re-evaluates: now mostly uncertain, the table stays dense
	// and the statistics say so.
	ts, err = db.Analyze("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 100 || ts.Storage != core.ReprDense {
		t.Fatalf("post-update Analyze: %+v", ts)
	}
	if !strings.Contains(ts.String(), "storage: dense") {
		t.Fatalf("stats rendering lacks the dense storage line:\n%s", ts)
	}

	// Manual override pins it sparse (partially flat: column a went
	// uncertain, column b is still flat), and back.
	ts, err = db.SetTableStorage("t", StorageForceSparse)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Storage != core.ReprSparse || ts.FlatCols != 1 || ts.MultFlat {
		t.Fatalf("force-sparse override: %+v", ts)
	}
	rel, _ := db.Relation("t")
	if repr, flat, multFlat := rel.StorageDetail(); repr != core.ReprSparse || flat != 1 || multFlat {
		t.Fatalf("override storage = %v, %d flat cols, flat mults %v; want sparse, 1, false", repr, flat, multFlat)
	}
	ts, err = db.SetTableStorage("t", StorageForceDense)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Storage != core.ReprDense {
		t.Fatalf("force-dense override: %+v", ts)
	}

	// Re-registering a fully certain replacement flips back to sparse
	// under the auto policy, every column and the multiplicities flat.
	repl := NewUncertainTable("t", "a", "b")
	for i := 0; i < 40; i++ {
		repl.AddRow(RangeRow{CertainOf(Int(int64(i % 7))), CertainOf(Int(int64(i)))}, CertainMult(1))
	}
	db.Add(repl)
	rel, _ = db.Relation("t")
	if repr, flat, multFlat := rel.StorageDetail(); repr != core.ReprSparse || flat != 2 || !multFlat {
		t.Fatalf("certain replacement storage = %v, %d flat cols, flat mults %v; want sparse, 2, true", repr, flat, multFlat)
	}
	got, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sort().String() != wantText {
		t.Fatalf("representation lifecycle changed the query answer:\n%s\nvs\n%s", wantText, got)
	}

	// Unknown tables error through both new entry points.
	if _, err := db.SetTableStorage("nope", StorageForceSparse); err == nil {
		t.Fatal("SetTableStorage on an unknown table should error")
	}
}

// TestStorageFlipRace races representation flips (Analyze, SetTableStorage,
// re-registration) against concurrent queries and statistics reads, run
// under -race: flips happen by atomically registering replacement
// relations, so queries must keep executing over consistent snapshots and
// must never observe a half-flipped table. Goroutines never mutate a
// shared relation — only re-register different ones (the supported
// pattern, as in TestStatsLifecycleRace).
func TestStorageFlipRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rrows := mostlyCertainRows(40, rng)
	srows := mostlyCertainRows(40, rng)
	db := storageDB(StorageAuto, rrows, srows)

	// Pre-built replacements alternating between mostly-certain (compacts)
	// and mostly-uncertain (stays dense), so re-registration keeps flipping
	// the representation back and forth.
	repl := make([]*UncertainTable, 4)
	for i := range repl {
		tb := NewUncertainTable("r", "a", "b")
		for j := 0; j < 30; j++ {
			if i%2 == 0 {
				tb.AddRow(RangeRow{CertainOf(Int(int64(j % 5))), CertainOf(Int(int64(j)))}, CertainMult(1))
			} else {
				tb.AddRow(RangeRow{Range(Int(0), Int(int64(j%5)), Int(9)), CertainOf(Int(int64(j)))}, Mult(0, 1, 2))
			}
		}
		repl[i] = tb
	}

	const q = `SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < 4`
	var mutators sync.WaitGroup
	for w := 0; w < 4; w++ {
		mutators.Add(1)
		go func(w int) {
			defer mutators.Done()
			for i := 0; i < 50; i++ {
				switch (w + i) % 4 {
				case 0:
					db.Add(repl[i%len(repl)])
				case 1:
					db.Analyze("r") // may race a re-registration; only data races matter
				case 2:
					db.SetTableStorage("r", StorageForceSparse)
				default:
					db.SetTableStorage("r", StorageForceDense)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.QueryContext(context.Background(), q, WithWorkers(2))
				if err == nil && res == nil {
					t.Error("nil result without error")
					return
				}
				db.TableStats("r")
			}
		}()
	}
	mutators.Wait()
	close(stop)
	readers.Wait()

	// The catalog settles on whichever replacement won; a final Analyze
	// must serve statistics consistent with the registered relation.
	ts, err := db.Analyze("r")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if (ts.Storage == core.ReprSparse) != rel.IsSparse() {
		t.Fatalf("statistics disagree with the relation: stats=%v sparse=%v", ts.Storage, rel.IsSparse())
	}
}
