package phys

import (
	"context"
	"math/rand"
	"testing"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/opt"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/types"
)

// certDB builds a single-table database of fully certain rows (i, i%mod)
// compacted to sparse storage: both columns flat, multiplicities flat —
// the layout the columnar scan and the vectorized kernels are built for.
func certDB(t testing.TB, rows, mod int) core.DB {
	rel := core.New(schema.New("k", "v"))
	for i := 0; i < rows; i++ {
		rel.Add(core.Tuple{
			Vals: rangeval.Tuple{
				rangeval.Certain(types.Int(int64(i))),
				rangeval.Certain(types.Int(int64(i % mod))),
			},
			M: core.One,
		})
	}
	if rel.Compact(core.StoragePolicy{}) != core.ReprSparse {
		t.Fatal("relation did not compact to sparse")
	}
	if repr, flat, multFlat := rel.StorageDetail(); repr != core.ReprSparse || flat != 2 || !multFlat {
		t.Fatalf("certain table storage = %v, %d flat cols, flat mults %v; want sparse, 2, true", repr, flat, multFlat)
	}
	return core.DB{"t": rel}
}

// sparsify force-compacts the named tables in place (the others stay
// dense, giving mixed-representation plans).
func sparsify(t testing.TB, db core.DB, names ...string) core.DB {
	for _, n := range names {
		rel, ok := db[n]
		if !ok {
			t.Fatalf("sparsify: no table %q", n)
		}
		if rel.Compact(core.StoragePolicy{}) != core.ReprSparse {
			t.Fatalf("sparsify: %q did not compact", n)
		}
	}
	return db
}

// TestSparseScanAliasesColumns: a columnar scan over a sparse
// all-flat table must alias the stored columns — zero per-batch tuple
// materialization, zero steady-state allocations per drain. (AllocsPerRun's warm-up run absorbs the one-time
// growth of the reused batch's column slice.)
func TestSparseScanAliasesColumns(t *testing.T) {
	const rows = 8192
	db := certDB(t, rows, 23)
	rel := db["t"]
	ctx := context.Background()

	it := newScanIter(rel, 0, rel.Len(), DefaultBatchSize)
	drain := func() {
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		got := 0
		for {
			b, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if !b.Columnar {
				t.Fatal("sparse scan emitted a row batch")
			}
			got += b.Len()
		}
		if got != rows {
			t.Fatalf("drained %d rows, want %d", got, rows)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, drain)
	if allocs > 0 {
		t.Fatalf("columnar scan allocates %.0f objects per drain, want 0 (per-batch densification crept back in)", allocs)
	}
}

// TestColumnarMatchesReference: over random AU-databases with sparse and
// mixed table representations, the columnar pipeline is bit-identical to
// the reference executor for every query in the corpus, worker count and
// batch size.
func TestColumnarMatchesReference(t *testing.T) {
	ctx := context.Background()
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial*97)))
		db := randomAUDB(rng, 3+rng.Intn(6))
		// r sparse, s alternating: sparse-only and mixed plans both occur.
		names := []string{"r"}
		if trial%2 == 0 {
			names = append(names, "s")
		}
		sparsify(t, db, names...)
		cat := ra.CatalogMap(db.Schemas())
		for _, q := range propertyCorpus(rng) {
			compiled, err := sql.Compile(q, cat)
			if err != nil {
				t.Fatalf("[trial %d] compile %s: %v", trial, q, err)
			}
			optimized, err := opt.Optimize(compiled, cat)
			if err != nil {
				t.Fatalf("[trial %d] optimize %s: %v", trial, q, err)
			}
			for pi, plan := range []ra.Node{compiled, optimized} {
				want, err := core.Exec(ctx, plan, db, core.Options{Workers: 1})
				if err != nil {
					t.Fatalf("[trial %d] %s (plan %d): reference: %v", trial, q, pi, err)
				}
				wantS := want.Sort().String()
				for _, g := range physOptionGrid {
					got, err := Exec(ctx, plan, db, Options{
						BatchSize: g.batch,
						Exec:      core.Options{Workers: g.workers},
					})
					if err != nil {
						t.Fatalf("[trial %d] %s (plan %d, w=%d b=%d): %v",
							trial, q, pi, g.workers, g.batch, err)
					}
					if gotS := got.Sort().String(); gotS != wantS {
						t.Fatalf("[trial %d] %s (plan %d, w=%d b=%d): result differs\nreference:\n%s\ngot:\n%s",
							trial, q, pi, g.workers, g.batch, wantS, gotS)
					}
				}
			}
		}
	}
}

// TestColumnarCompressedMatches: the compressed modes (merge granularity
// observable, Project/Union demoted to breakers) stay bit-identical over
// sparse storage too.
func TestColumnarCompressedMatches(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(181))
	db := sparsify(t, randomAUDB(rng, 8), "r", "s")
	cat := ra.CatalogMap(db.Schemas())
	queries := []string{
		`SELECT r.a + 1 AS a1, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < 4`,
		`SELECT b, sum(a) AS s FROM r GROUP BY b`,
		`SELECT a + b AS ab FROM r UNION SELECT c FROM s`,
	}
	opts := core.Options{JoinCompression: 2, AggCompression: 2, Workers: 1}
	for _, q := range queries {
		plan, err := sql.Compile(q, cat)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		want, err := core.Exec(ctx, plan, db, opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		for _, batch := range []int{1, 7, 1024} {
			got, err := Exec(ctx, plan, db, Options{BatchSize: batch, Exec: opts})
			if err != nil {
				t.Fatalf("%s (batch %d): %v", q, batch, err)
			}
			if want.Sort().String() != got.Sort().String() {
				t.Fatalf("%s (batch %d): compressed sparse result differs\nreference:\n%s\ngot:\n%s", q, batch, want, got)
			}
		}
	}
}

// TestColumnarBoundsWorlds: over sparse storage, the columnar pipeline's
// results still bound every possible world (Corollary 2) — the
// enumerated-worlds check of TestPipelinedBoundsWorlds re-run with
// force-sparse relations.
func TestColumnarBoundsWorlds(t *testing.T) {
	cat := ra.CatalogMap{"r": schema.New("a", "b"), "r2": schema.New("a", "b")}
	queries := []string{
		`SELECT r.a, r2.b FROM r, r2 WHERE r.a = r2.a AND r.b <= 3`,
		`SELECT a FROM r EXCEPT SELECT a FROM r2`,
		`SELECT b, sum(a) AS s FROM r WHERE a <= 4 GROUP BY b`,
	}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*67 + 29)))
		rRel, rWorlds := randomIncomplete(rng, schema.New("a", "b"), 1+rng.Intn(3))
		sRel, sWorlds := randomIncomplete(rng, schema.New("a", "b"), 1+rng.Intn(2))
		db := sparsify(t, core.DB{"r": rRel, "r2": sRel}, "r", "r2")
		for _, q := range queries {
			plan, err := sql.Compile(q, cat)
			if err != nil {
				t.Fatalf("[%d] %s: %v", trial, q, err)
			}
			res, err := Exec(context.Background(), plan, db, Options{BatchSize: 7})
			if err != nil {
				t.Fatalf("[%d] %s: %v", trial, q, err)
			}
			for _, rw := range rWorlds {
				for _, sw := range sWorlds {
					det, err := bag.Exec(context.Background(), plan, bag.DB{"r": rw, "r2": sw})
					if err != nil {
						t.Fatalf("[%d] %s: det: %v", trial, q, err)
					}
					if !res.BoundsWorld(det) {
						t.Fatalf("[%d] %s: columnar result does not bound world:\nworld:\n%s\nresult:\n%s",
							trial, q, det, res)
					}
				}
			}
		}
	}
}

// TestAggLeavesStoredRowsAlone: an aggregation over a Union of a dense and
// a sparse table reads a run of stored row tuples followed by a run of
// columns. Its CASE argument is evaluated per row, and the gathered
// columnar rows must not be written over the stored tuples: the dense
// table is unchanged afterwards and the answer is the reference's.
func TestAggLeavesStoredRowsAlone(t *testing.T) {
	ctx := context.Background()
	const rows = 3000
	db := seqDB(rows, 23)
	sp := certDB(t, rows, 7)["t"]
	db["s"] = sp
	dense := db["t"].String()
	v := expr.Col(1, "v")
	plan := &ra.Agg{
		Child:   &ra.Union{Left: &ra.Scan{Table: "t"}, Right: &ra.Scan{Table: "s"}},
		GroupBy: []int{1},
		Aggs: []ra.AggSpec{
			{Fn: ra.AggSum, Arg: expr.If{Cond: expr.Gt(v, expr.CInt(3)), Then: v, Else: expr.CInt(0)}, Name: "big"},
			{Fn: ra.AggCount, Name: "n"},
		},
	}
	want, err := core.Exec(ctx, plan, db, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range physOptionGrid {
		got, err := Exec(ctx, plan, db, Options{BatchSize: g.batch, Exec: core.Options{Workers: g.workers}})
		if err != nil {
			t.Fatalf("w=%d b=%d: %v", g.workers, g.batch, err)
		}
		if db["t"].String() != dense {
			t.Fatalf("w=%d b=%d: the aggregation changed the stored dense table", g.workers, g.batch)
		}
		if got.String() != want.String() {
			t.Fatalf("w=%d b=%d: result differs\nreference:\n%s\ngot:\n%s", g.workers, g.batch, want, got)
		}
	}
}
