package audb

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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
// given row sets. With appended unset each table is registered whole, and
// compacted by registration; with appended set it is registered empty and
// filled row by row afterwards, through columnar appends.
func storageDB(appended bool, rrows, srows []testRow) *Database {
	db := New()
	mk := func(name string, rows []testRow, cols ...string) {
		rel := core.New(schema.New(cols...))
		if appended {
			db.AddRelation(name, rel)
		}
		for _, row := range rows {
			rel.Add(core.Tuple{Vals: row.vals, M: row.m})
		}
		if !appended {
			db.AddRelation(name, rel)
		}
	}
	mk("r", rrows, "a", "b")
	mk("s", srows, "c", "d")
	return db
}

// TestSparseDenseEquivalence is the storage layer's acceptance property on
// mostly-certain data: a database whose tables were registered whole and
// one whose tables were filled by appends after registration produce
// bit-identical results for the full optimizer corpus across all three
// engines, serial and parallel, pipelined and materialized. Both store
// every table columnar (no registered table is dense); the appended side's
// columns took their triples mid-stream, where registration compacted the
// other's in one pass. The materialized executor densifies at operator
// entry, so the matrix still checks the dense kernels against the
// columnar ones.
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
		appended := storageDB(true, rrows, srows)
		whole := storageDB(false, rrows, srows)
		for _, db := range []*Database{appended, whole} {
			if rel, _ := db.Relation("r"); !rel.IsSparse() {
				t.Fatal("a registered table is dense")
			}
		}

		corpus := append(optCorpus(rng), sessionCorpus...)
		for _, q := range corpus {
			for _, eng := range engines {
				for _, workers := range []int{1, 4} {
					for _, em := range []ExecMode{ExecPipelined, ExecMaterialized} {
						opts := []QueryOption{WithEngine(eng), WithWorkers(workers), WithExecMode(em)}
						want, errA := appended.QueryContext(ctx, q, opts...)
						got, errW := whole.QueryContext(ctx, q, opts...)
						if (errA == nil) != (errW == nil) {
							t.Fatalf("[trial %d] %s [%s workers=%d %s]: storage changed acceptance: appended=%v whole=%v",
								trial, q, eng, workers, em, errA, errW)
						}
						if errA != nil {
							continue // e.g. DISTINCT on the rewrite middleware
						}
						if want.Sort().String() != got.Sort().String() {
							t.Fatalf("[trial %d] %s [%s workers=%d %s]: results diverged:\n%s\nvs\n%s",
								trial, q, eng, workers, em, want, got)
						}
					}
				}
			}
		}
	}
}

// TestStorageRepresentationFlip covers the storage lifecycle: a table is
// stored columnar on registration and stays columnar through appends that
// introduce uncertainty, which turn its column and its multiplicities
// into triples as they arrive. Analyze only refreshes the statistics,
// which report each state, and no step changes a query's answer.
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

	// Appends that introduce uncertainty keep the table columnar: column
	// a and the multiplicities take triples, column b stays flat.
	for i := 0; i < 60; i++ {
		tbl.AddRow(RangeRow{Range(Int(0), Int(int64(i%7)), Int(6)), CertainOf(Int(int64(i)))}, Mult(0, 1, 1))
	}
	rel, _ := db.Relation("t")
	if repr, flat, multFlat := rel.StorageDetail(); repr != core.ReprSparse || flat != 1 || multFlat {
		t.Fatalf("after uncertain appends the table is %v with %d flat columns, flat multiplicities %v; want sparse, 1, false", repr, flat, multFlat)
	}
	want, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	wantText := want.Sort().String()

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
	if got, _ := db.Relation("t"); got != rel {
		t.Fatal("Analyze replaced the registered relation")
	}
	got, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sort().String() != wantText {
		t.Fatalf("Analyze changed the query answer:\n%s\nvs\n%s", wantText, got)
	}

	if _, err := db.Analyze("nope"); err == nil {
		t.Fatal("Analyze on an unknown table should error")
	}
}

// TestRowsAfterAnalyzeReachQueries adds rows through handles taken before
// Analyze: an UncertainTable, on mostly uncertain and on certain data, and
// a relation handle from Database.Relation, across two Analyze calls.
// Every row must reach queries, also after the table handle is dropped
// and added again, and the table must stay columnar throughout: Analyze
// only refreshes its statistics.
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
			if repr, _, _ := tbl.Rel().StorageDetail(); repr != core.ReprSparse {
				t.Fatalf("uncertain=%v, %s: the table is %v", uncertain, step, repr)
			}
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
			check("Analyze")
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
		if tbl.Rel() != rel {
			t.Fatalf("uncertain=%v: the catalog holds another relation than the table handle", uncertain)
		}
		db.Drop("t")
		db.Add(tbl)
		check("re-adding the handle")
	}
}

// TestAppendSnapshotRace appends rows to a registered table while queries
// and Analyze run, under -race. Row i has a = i, and every third appended
// row is uncertain in b with an uncertain multiplicity, so the appends
// turn the flat column and the flat multiplicities into triples mid-race.
// Each query must see exactly a prefix of the rows (its snapshot's),
// through the pipelined scan, the aggregation kernel and the materialized
// executor; both sides of a difference must see the same prefix; and
// each Analyze must count a prefix too.
func TestAppendSnapshotRace(t *testing.T) {
	const base, rows = 20, 1000
	ctx := context.Background()
	row := func(i int) (RangeRow, Multiplicity) {
		if i%3 == 2 && i >= base {
			return RangeRow{CertainOf(Int(int64(i))), Range(Int(0), Int(int64(i)), Int(int64(i+3)))}, Mult(0, 1, 1)
		}
		return RangeRow{CertainOf(Int(int64(i))), CertainOf(Int(int64(i)))}, CertainMult(1)
	}
	db := New()
	tbl := NewUncertainTable("t", "a", "b")
	for i := 0; i < base; i++ {
		tbl.AddRow(row(i))
	}
	db.Add(tbl)

	// prefix reports whether the SG values of a, in any order, are
	// 0..len-1 with len between base and rows.
	prefix := func(res *Result) bool {
		var got []int64
		_ = res.EachTuple(func(tp core.Tuple) error {
			got = append(got, tp.Vals[0].SG.AsInt())
			return nil
		})
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i, v := range got {
			if v != int64(i) {
				return false
			}
		}
		return len(got) >= base && len(got) <= rows
	}
	// The readers run until the appender is through. It pauses after
	// every row, so appends keep landing inside queries.
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := base; i < rows; i++ {
			tbl.AddRow(row(i))
			time.Sleep(20 * time.Microsecond)
		}
	}()
	// more reports whether the appender is still running.
	more := func() bool {
		select {
		case <-done:
			return false
		default:
			return true
		}
	}
	for _, em := range []ExecMode{ExecPipelined, ExecMaterialized} {
		wg.Add(1)
		go func(em ExecMode) {
			defer wg.Done()
			opts := []QueryOption{WithWorkers(2), WithExecMode(em)}
			for more() {
				res, err := db.QueryContext(ctx, `SELECT a FROM t`, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if !prefix(res) {
					t.Errorf("%s: a scan saw rows that are no prefix of the appends:\n%s", em, res)
					return
				}
				res, err = db.QueryContext(ctx, `SELECT a, count(*) AS n FROM t GROUP BY a`, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if !prefix(res) {
					t.Errorf("%s: an aggregation saw rows that are no prefix of the appends:\n%s", em, res)
					return
				}
				// Both sides read one snapshot, so no row is in the
				// selected-guess world of the difference.
				res, err = db.QueryContext(ctx, `SELECT a FROM t EXCEPT SELECT a FROM t`, opts...)
				if err != nil {
					t.Error(err)
					return
				}
				if res.CertainSize() != 0 || res.SGW().Len() != 0 {
					t.Errorf("%s: the two sides of a difference saw different rows:\n%s", em, res)
					return
				}
			}
		}(em)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for more() {
			ts, err := db.Analyze("t")
			if err != nil {
				t.Error(err)
				return
			}
			if ts.Rows < base || ts.Rows > rows {
				t.Errorf("Analyze counted %d rows, want between %d and %d", ts.Rows, base, rows)
				return
			}
		}
	}()
	wg.Wait()
	res, err := db.QueryContext(ctx, `SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != rows || !prefix(res) {
		t.Fatalf("after the appends a query sees %d rows, want %d", res.Len(), rows)
	}
	if repr, flat, multFlat := tbl.Rel().StorageDetail(); repr != core.ReprSparse || flat != 1 || multFlat {
		t.Fatalf("after the appends the table is %v with %d flat columns, flat multiplicities %v; want sparse, 1, false", repr, flat, multFlat)
	}
}

// TestHandleInTwoDatabases: an UncertainTable added to two databases is
// one table in both. Rows added through the handle reach queries in each,
// and dropping it from one leaves the other's rows and appends intact.
func TestHandleInTwoDatabases(t *testing.T) {
	ctx := context.Background()
	tbl := NewUncertainTable("t", "a")
	tbl.AddCertainRow(Int(1))
	one, two := New(), New()
	one.Add(tbl)
	two.Add(tbl)
	count := func(db *Database) int {
		t.Helper()
		res, err := db.QueryContext(ctx, `SELECT a FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}
	tbl.AddCertainRow(Int(2))
	if count(one) != 2 || count(two) != 2 {
		t.Fatalf("a row added through the handle reached %d and %d rows, want 2 and 2", count(one), count(two))
	}
	one.Drop("t")
	if _, err := one.QueryContext(ctx, `SELECT a FROM t`); err == nil {
		t.Fatal("the dropped table still answers queries")
	}
	tbl.AddCertainRow(Int(3))
	if count(two) != 3 {
		t.Fatalf("after a drop in the other database, a query sees %d rows, want 3", count(two))
	}
	if ts, err := two.Analyze("t"); err != nil || ts.Rows != 3 {
		t.Fatalf("Analyze in the remaining database: %v, %v", ts, err)
	}
}
