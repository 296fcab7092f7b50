package audb

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/schema"
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
// given row sets, each built in the given representation (core.ReprAuto
// is the representation registration picks).
func storageDB(mode core.ReprMode, rrows, srows []testRow) *Database {
	db := New()
	mk := func(name string, rows []testRow, cols ...string) {
		b := core.NewRelationBuilder(schema.New(cols...), len(rows))
		for _, row := range rows {
			b.Add(core.Tuple{Vals: row.vals, M: row.m})
		}
		db.cat.RegisterPrebuilt(name, b.Finish(core.StoragePolicy{Mode: mode}))
	}
	mk("r", rrows, "a", "b")
	mk("s", srows, "c", "d")
	return db
}

// forceStorage rebuilds a registered table in a forced representation and
// swaps it in with a compare-and-swap replacement, the way Analyze flips
// one.
func forceStorage(db *Database, name string, mode core.ReprMode) {
	rel, ok := db.cat.Lookup(name)
	if !ok {
		return
	}
	b := core.NewRelationBuilder(rel.Schema, rel.Len())
	_ = rel.EachTuple(func(t core.Tuple) error {
		b.Add(t)
		return nil
	})
	db.cat.ReplaceIf(name, rel, b.Finish(core.StoragePolicy{Mode: mode}))
}

// TestSparseDenseEquivalence is the storage layer's acceptance property: on
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
		dense := storageDB(core.ReprForceDense, rrows, srows)
		sparse := storageDB(core.ReprForceSparse, rrows, srows)

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
// updates make it uncertain, is re-evaluated by Analyze, and flips back
// when a certain replacement is registered — with every state change
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

	// Re-registering a fully certain replacement flips back to sparse
	// under the auto policy, every column and the multiplicities flat.
	repl := NewUncertainTable("t", "a", "b")
	for i := 0; i < 40; i++ {
		repl.AddRow(RangeRow{CertainOf(Int(int64(i % 7))), CertainOf(Int(int64(i)))}, CertainMult(1))
	}
	db.Add(repl)
	rel, _ := db.Relation("t")
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

	if _, err := db.Analyze("nope"); err == nil {
		t.Fatal("Analyze on an unknown table should error")
	}
}

// TestStorageFlipRace races representation flips (Analyze, forced
// replacements, re-registration) against concurrent queries and statistics reads, run
// under -race: flips happen by atomically registering replacement
// relations, so queries must keep executing over consistent snapshots and
// must never observe a half-flipped table. Goroutines never mutate a
// shared relation — only re-register different ones (the supported
// pattern, as in TestStatsLifecycleRace).
func TestStorageFlipRace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rrows := mostlyCertainRows(40, rng)
	srows := mostlyCertainRows(40, rng)
	db := storageDB(core.ReprAuto, rrows, srows)

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
					forceStorage(db, "r", core.ReprForceSparse)
				default:
					forceStorage(db, "r", core.ReprForceDense)
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
