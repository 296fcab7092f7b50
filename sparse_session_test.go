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
// out of ten. A sprinkling of certain nulls and uncertain multiplicities
// exercises the fast-path disqualification gates (a flat column with
// nulls, a triple multiplicity).
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
// given row sets. Registration stores a table columnar; with dense set,
// each table is registered empty and filled row by row afterwards, which
// keeps it in the dense layout until the next Analyze.
func storageDB(dense bool, rrows, srows []testRow) *Database {
	db := New()
	mk := func(name string, rows []testRow, cols ...string) {
		rel := core.New(schema.New(cols...))
		if dense {
			db.AddRelation(name, rel)
		}
		for _, row := range rows {
			rel.Add(core.Tuple{Vals: row.vals, M: row.m})
		}
		if !dense {
			db.AddRelation(name, rel)
		}
	}
	mk("r", rrows, "a", "b")
	mk("s", srows, "c", "d")
	return db
}

// registerDense re-registers a table's rows in the dense layout: an empty
// relation is registered, then filled row by row.
func registerDense(db *Database, name string) {
	rel, ok := db.cat.Lookup(name)
	if !ok {
		return
	}
	fresh := core.New(rel.Schema)
	db.AddRelation(name, fresh)
	for _, t := range rel.Dense().Tuples {
		fresh.Add(t)
	}
}

// TestSparseDenseEquivalence is the storage layer's acceptance property: on
// mostly-certain data, a columnar database and one whose tables were
// filled row by row after registration (dense) produce bit-identical results for the full optimizer corpus across all
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
		dense := storageDB(true, rrows, srows)
		sparse := storageDB(false, rrows, srows)

		// The representations must actually differ, or the test is vacuous.
		if rel, _ := dense.Relation("r"); rel.IsSparse() {
			t.Fatal("row-by-row database compacted a table")
		}
		if rel, _ := sparse.Relation("r"); !rel.IsSparse() {
			t.Fatal("registration kept a table dense")
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
// table is stored columnar on registration, goes dense the moment in-place
// updates add rows to it, and is stored columnar again by Analyze — with
// every state change visible in the reported statistics and none of them
// changing a query's answer.
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

	// In-place updates that introduce uncertainty densify the relation
	// immediately — the flat columns are gone before the next query can
	// observe the new rows, never after.
	for i := 0; i < 60; i++ {
		tbl.AddRow(RangeRow{Range(Int(0), Int(int64(i%7)), Int(6)), CertainOf(Int(int64(i)))}, Mult(0, 1, 1))
	}
	if rel, _ := db.Relation("t"); rel.IsSparse() {
		t.Fatal("uncertain updates left the relation sparse")
	}
	want, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantText := want.Sort().String()

	// Analyze stores the now mostly uncertain table columnar again: the
	// certain column stays flat, the uncertain one and the multiplicities
	// keep their triples, and the statistics say so.
	ts, err = db.Analyze("t")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rows != 100 || ts.Storage != core.ReprSparse || ts.FlatCols != 1 || ts.MultFlat {
		t.Fatalf("post-update Analyze: %+v", ts)
	}
	if !strings.Contains(ts.String(), "storage: sparse (1/2 flat columns, triple multiplicities)") {
		t.Fatalf("stats rendering lacks the storage line:\n%s", ts)
	}
	if rel, _ := db.Relation("t"); !rel.IsSparse() {
		t.Fatal("Analyze left the relation dense")
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

// TestRowsAfterAnalyzeReachQueries adds rows through handles taken before
// Analyze swapped a columnar copy into the catalog: an UncertainTable, on
// mostly uncertain and on certain data, and a relation handle from
// Database.Relation, across two Analyze calls. Every row must reach
// queries, also after the table handle is dropped and added again.
func TestRowsAfterAnalyzeReachQueries(t *testing.T) {
	ctx := context.Background()
	for _, uncertain := range []bool{true, false} {
		db := New()
		tbl := NewUncertainTable("t", "a", "b")
		n := 0
		add := func(k int) {
			for i := 0; i < k; i++ {
				b := CertainOf(Int(int64(n)))
				if uncertain {
					b = Range(Int(0), Int(int64(n)), Int(int64(n+5)))
				}
				tbl.AddRow(RangeRow{CertainOf(Int(int64(n))), b}, CertainMult(1))
				n++
			}
		}
		check := func(step string) {
			t.Helper()
			res, err := db.QueryContext(ctx, `SELECT a FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != n {
				t.Fatalf("uncertain=%v, %s: query sees %d rows, %d were added", uncertain, step, res.Len(), n)
			}
		}
		db.Add(tbl)
		add(3)
		for round := 0; round < 2; round++ {
			if _, err := db.Analyze("t"); err != nil {
				t.Fatal(err)
			}
			if rel, _ := db.Relation("t"); !rel.IsSparse() {
				t.Fatalf("uncertain=%v: Analyze left the table dense", uncertain)
			}
			add(2)
			check("AddRow after Analyze")
		}
		rel, _ := db.Relation("t")
		if _, err := db.Analyze("t"); err != nil {
			t.Fatal(err)
		}
		rel.Add(core.Tuple{Vals: RangeRow{CertainOf(Int(int64(n))), CertainOf(Int(0))}, M: CertainMult(1)})
		n++
		check("Relation.Add after Analyze")
		if tbl.Rel() != rel.Live() {
			t.Fatalf("uncertain=%v: table handle does not follow the swap", uncertain)
		}
		db.Drop("t")
		db.Add(tbl)
		check("re-adding the handle")
	}
}

// TestStorageFlipRace races the one remaining representation change —
// Analyze swapping a columnar rebuild in for a table that in-place updates
// left dense — against concurrent Analyze calls, queries and statistics
// reads, run under -race. Each round fills a freshly registered table
// before any reader starts (mutating a table queries may be reading is the
// caller's race to avoid); the racing Analyze calls settle on one
// replacement, and every query answers over a consistent snapshot.
func TestStorageFlipRace(t *testing.T) {
	ctx := context.Background()
	const q = `SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < 4`
	rng := rand.New(rand.NewSource(11))
	rrows := mostlyCertainRows(40, rng)
	srows := mostlyCertainRows(40, rng)
	want, err := storageDB(false, rrows, srows).QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantText := want.Sort().String()
	for round := 0; round < 8; round++ {
		db := storageDB(true, rrows, srows)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if w%2 == 0 {
						if _, err := db.Analyze("r"); err != nil {
							t.Error(err)
						}
						db.TableStats("s")
						continue
					}
					res, err := db.QueryContext(ctx, q, WithWorkers(2))
					if err != nil {
						t.Error(err)
						return
					}
					if got := res.Sort().String(); got != wantText {
						t.Errorf("round %d: answer changed during the flip:\n%s\nvs\n%s", round, wantText, got)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		ts, err := db.Analyze("r")
		if err != nil {
			t.Fatal(err)
		}
		rel, err := db.Relation("r")
		if err != nil {
			t.Fatal(err)
		}
		if !rel.IsSparse() || ts.Storage != core.ReprSparse {
			t.Fatalf("round %d: after Analyze the table is %v, its statistics say %v; want sparse", round, rel.Repr(), ts.Storage)
		}
	}
}
