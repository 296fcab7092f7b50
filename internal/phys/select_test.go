package phys

import (
	"context"
	"strings"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/phys/vec"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/types"
)

// uncertainColDB builds tables u(a, b, c) and v(b, d), stored columnar.
// In u, a is uncertain in every third row, so it is stored with triples;
// b is certain and flat; c is a nonzero uncertain divisor except at row
// zeroRow (if >= 0), where it is [0/0/1]. Every fourth multiplicity of u
// is uncertain; v's are all certain, so its multiplicities are flat.
func uncertainColDB(t testing.TB, rows, zeroRow int) core.DB {
	u := core.New(schema.New("a", "b", "c"))
	for i := 0; i < rows; i++ {
		n := int64(i % 100)
		a := rangeval.Certain(types.Int(n))
		if i%3 == 0 {
			a = rangeval.New(types.Int(n-7), types.Int(n), types.Int(n+5))
		}
		c := rangeval.New(types.Int(1), types.Int(1+n%4), types.Int(6))
		if i == zeroRow {
			c = rangeval.New(types.Int(0), types.Int(0), types.Int(1))
		}
		m := core.One
		if i%4 == 1 {
			m = core.Mult{Lo: 0, SG: 1, Hi: 2}
		}
		u.Add(core.Tuple{Vals: rangeval.Tuple{a, rangeval.Certain(types.Int(int64(i % 11))), c}, M: m})
	}
	v := core.New(schema.New("b", "d"))
	for i := 0; i < 40; i++ {
		v.Add(core.Tuple{Vals: rangeval.Tuple{
			rangeval.Certain(types.Int(int64(i % 11))),
			rangeval.Certain(types.Int(int64(i))),
		}, M: core.One})
	}
	db := sparsify(t, core.DB{"u": u, "v": v}, "u", "v")
	cols, _, _, _ := db["u"].SparseView()
	if cols[0].IsFlat() || !cols[1].IsFlat() || cols[2].IsFlat() {
		t.Fatalf("u's columns flat = %v %v %v, want false true false", cols[0].IsFlat(), cols[1].IsFlat(), cols[2].IsFlat())
	}
	return db
}

// selectQueries filter u on its uncertain columns, so the columnar select
// cannot take the vectorized program; several predicates are uncertain on
// some rows and scale those rows' multiplicities.
var selectQueries = []string{
	`SELECT a, b FROM u WHERE a <= 40`,
	`SELECT a, b, c FROM u WHERE a < b + 30 AND b >= 2`,
	`SELECT a + c AS ac, b FROM u WHERE a <= 60`,
	`SELECT b, sum(a) AS s, count(*) AS n FROM u WHERE a > 50 GROUP BY b`,
	`SELECT u.a, v.d FROM u JOIN v ON u.b = v.b WHERE u.a < 20`,
	`SELECT a FROM u WHERE c >= 3 EXCEPT SELECT a FROM u WHERE a > 70`,
	`SELECT a, b FROM u WHERE b < 3 ORDER BY a LIMIT 9`,
}

// TestInPlaceColumnarSelect: filtering uncertain columns in place gives
// exactly the reference executor's answer, for every worker count and
// batch size, including rows whose multiplicities an uncertain predicate
// scales.
func TestInPlaceColumnarSelect(t *testing.T) {
	ctx := context.Background()
	db := uncertainColDB(t, 3*minPartitionRows+50, -1)
	cat := ra.CatalogMap(db.Schemas())
	plans := map[string]ra.Node{
		// Stacked selects: the upper one reads the lower one's
		// selection vector and scaled multiplicities.
		"stacked": &ra.Select{
			Child: &ra.Select{Child: &ra.Scan{Table: "u"}, Pred: expr.Leq(expr.Col(0, "a"), expr.CInt(80))},
			Pred:  expr.Geq(expr.Col(0, "a"), expr.CInt(20)),
		},
	}
	for _, q := range selectQueries {
		plan, err := sql.Compile(q, cat)
		if err != nil {
			t.Fatalf("compile %s: %v", q, err)
		}
		plans[q] = plan
	}
	for name, plan := range plans {
		want, err := core.Exec(ctx, plan, db, core.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if want.Len() == 0 {
			t.Fatalf("%s: empty reference result, the query checks nothing", name)
		}
		for _, workers := range []int{1, 3} {
			for _, batch := range []int{7, DefaultBatchSize} {
				got, err := Exec(ctx, plan, db, Options{BatchSize: batch, Exec: core.Options{Workers: workers}})
				if err != nil {
					t.Fatalf("%s (w=%d b=%d): %v", name, workers, batch, err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s (w=%d b=%d): result differs\nreference:\n%s\ngot:\n%s", name, workers, batch, want, got)
				}
			}
		}
	}

	// An uncertain predicate does scale some multiplicities here, so the
	// scaled-multiplicity path is exercised, not just the pass-through.
	plan, _ := sql.Compile(selectQueries[0], cat)
	res, err := core.Exec(ctx, plan, db, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	scaled := false
	for _, tup := range res.Tuples {
		if tup.M.Lo == 0 && tup.M.Hi == 1 {
			scaled = true
		}
	}
	if !scaled {
		t.Fatal("no multiplicity was scaled by the uncertain predicate")
	}
}

// TestInPlaceSelectStaysColumnar: a select over an uncertain column emits
// columnar batches (rep=col in EXPLAIN ANALYZE), not densified rows. Over
// certain columns the batches stay as flat as they came: a select whose
// truths are all points passes the flat multiplicities through, and a
// certain projection leaves as a flat column, while a projection with a
// live exception leaves with triples.
func TestInPlaceSelectStaysColumnar(t *testing.T) {
	testFlatStaysFlat(t)
	db := uncertainColDB(t, 500, -1)
	plan := &ra.Select{Child: &ra.Scan{Table: "u"}, Pred: expr.Leq(expr.Col(0, "a"), expr.CInt(40))}
	p, err := Compile(plan, db, Options{Analyze: true, BatchSize: 64, Exec: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sel *metrics.OpStats
	for op := p.Stats().Root; op != nil; op = firstChild(op) {
		if strings.HasPrefix(op.Op, "Select") {
			sel = op
		}
	}
	if sel == nil {
		t.Fatalf("no Select in the plan stats:\n%s", p.Stats())
	}
	if sel.Rep() != "col" {
		t.Fatalf("select over an uncertain column emitted rep=%s, want col:\n%s", sel.Rep(), p.Stats())
	}
}

// testFlatStaysFlat runs a select and projections straight over scans of
// the tables of uncertainColDB.
func testFlatStaysFlat(t *testing.T) {
	ctx := context.Background()
	db := uncertainColDB(t, 500, -1)
	first := func(it iter) *vec.Batch {
		t.Helper()
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		b, err := it.Next()
		if err != nil || b == nil || !b.Columnar {
			t.Fatalf("first batch %+v, %v; want a columnar batch", b, err)
		}
		return b
	}
	v, u := db["v"], db["u"]

	// v is certain, multiplicities included: d > 10 is a point truth on
	// every row.
	sel := &selectIter{child: newScanIter(v, 0, v.Len(), 64), pred: expr.Gt(expr.Col(1, "d"), expr.CInt(10)), sch: v.Schema}
	b := first(sel)
	if b.MFlat == nil || b.MDense != nil || len(b.Sel) != v.Len()-11 {
		t.Fatalf("select over certain rows: MFlat %v, MDense %v, %d rows kept; want flat multiplicities and %d rows", b.MFlat != nil, b.MDense != nil, len(b.Sel), v.Len()-11)
	}

	// d + 1 over v's flat column, after that select: a flat column whose
	// live rows hold d + 1.
	prj := &projectIter{child: sel, cols: []ra.ProjCol{{E: expr.Add(expr.Col(1, "d"), expr.CInt(1)), Name: "d1"}}, sch: schema.New("d1")}
	b = first(prj)
	if !b.Cols[0].IsFlat() {
		t.Fatal("d + 1 over a flat column did not leave flat")
	}
	for _, i := range b.Sel {
		if got, want := b.Cols[0].Flat[i], types.Int(int64(i)+1); !types.Same(got, want) {
			t.Fatalf("row %d: d + 1 = %v, want %v", i, got, want)
		}
	}

	// a + 1 over u, whose column a holds a range in every third row.
	a1 := []ra.ProjCol{{E: expr.Add(expr.Col(0, "a"), expr.CInt(1)), Name: "a1"}}
	prj = &projectIter{child: newScanIter(u, 0, u.Len(), 64), cols: a1, sch: schema.New("a1")}
	if b = first(prj); b.Cols[0].IsFlat() {
		t.Fatal("a + 1 over a column with ranges left flat")
	}

	// a + 1 over 600 points but one range, in the second chunk of the
	// batch: the first chunk's points are widened with it, with and
	// without a selection vector.
	w := core.New(schema.New("a"))
	for i := range 600 {
		a := rangeval.Certain(types.Int(int64(i)))
		if i == 400 {
			a = rangeval.New(types.Int(390), types.Int(400), types.Int(410))
		}
		w.Add(core.Tuple{Vals: rangeval.Tuple{a}, M: core.One})
	}
	w = sparsify(t, core.DB{"w": w}, "w")["w"]
	rows := w.Dense().Tuples
	for _, pred := range []expr.Expr{nil, expr.Neq(expr.Col(0, "a"), expr.CInt(3))} {
		var child iter = newScanIter(w, 0, w.Len(), DefaultBatchSize)
		if pred != nil {
			child = &selectIter{child: child, pred: pred, sch: w.Schema}
		}
		b = first(&projectIter{child: child, cols: a1, sch: schema.New("a1")})
		if b.Cols[0].IsFlat() || b.N != 600 || pred != nil && len(b.Sel) != 599 {
			t.Fatalf("a + 1 with one range (select %v): flat %v over %d rows, %d live", pred, b.Cols[0].IsFlat(), b.N, len(b.Sel))
		}
		_ = b.EachLive(func(i int) error {
			want, _ := a1[0].E.EvalRange(rows[i].Vals)
			if got := b.Cols[0].At(i); !types.Same(got.Lo, want.Lo) || !types.Same(got.SG, want.SG) || !types.Same(got.Hi, want.Hi) {
				t.Fatalf("row %d: a + 1 = %v, want %v", i, got, want)
			}
			return nil
		})
	}
}

func firstChild(op *metrics.OpStats) *metrics.OpStats {
	if len(op.Children) == 0 {
		return nil
	}
	return op.Children[0]
}

// TestInPlaceSelectErrorText: a predicate that fails mid-batch reports the
// reference executor's error text, whether the failing column is stored
// with triples or flat; either way the range-vector program fails and the
// batch is re-run per row.
func TestInPlaceSelectErrorText(t *testing.T) {
	ctx := context.Background()
	db := uncertainColDB(t, 3*minPartitionRows+50, 37)
	preds := map[string]expr.Expr{
		"triples": expr.Gt(expr.Div(expr.Col(0, "a"), expr.Col(2, "c")), expr.CInt(3)),
		"flat":    expr.Gt(expr.Div(expr.CInt(10), expr.Sub(expr.Col(1, "b"), expr.CInt(4))), expr.CInt(1)),
	}
	for name, pred := range preds {
		plan := &ra.Select{Child: &ra.Scan{Table: "u"}, Pred: pred}
		_, werr := core.Exec(ctx, plan, db, core.Options{Workers: 1})
		if werr == nil {
			t.Fatalf("%s: the reference executor accepted a division by zero", name)
		}
		for _, workers := range []int{1, 3} {
			_, err := Exec(ctx, plan, db, Options{BatchSize: 64, Exec: core.Options{Workers: workers}})
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("%s (w=%d): error %v, want %v", name, workers, err, werr)
			}
		}
	}
}
