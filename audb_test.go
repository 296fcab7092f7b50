package audb

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

func covidDB(t *testing.T) *Database {
	t.Helper()
	locales := NewUncertainTable("locales", "locale", "rate", "size")
	locales.AddRow(RangeRow{
		CertainOf(Str("Los Angeles")),
		Range(Float(3), Float(3), Float(4)),
		CertainOf(Str("metro")),
	}, CertainMult(1))
	locales.AddCertainRow(Str("Houston"), Float(14), Str("metro"))
	locales.AddRow(RangeRow{
		CertainOf(Str("Austin")),
		CertainOf(Float(18)),
		Range(Str("city"), Str("city"), Str("metro")),
	}, CertainMult(1))
	db := New()
	db.Add(locales)
	return db
}

func TestQueryQuickstart(t *testing.T) {
	db := covidDB(t)
	res, err := db.QueryContext(context.Background(), `SELECT size, avg(rate) AS rate FROM locales GROUP BY size`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("groups: %d\n%s", res.Len(), res)
	}
	// The metro group certainly exists; its SG average is 8.5.
	var found bool
	for _, tup := range res.Tuples {
		if tup.Vals[0].SG.AsString() == "metro" {
			found = true
			if tup.M.Lo < 1 {
				t.Errorf("metro group should be certain: %v", tup.M)
			}
			if tup.Vals[1].SG.AsFloat() != 8.5 {
				t.Errorf("metro SG average %v", tup.Vals[1])
			}
			if !types.Less(tup.Vals[1].Lo, tup.Vals[1].Hi) {
				t.Errorf("metro average should be uncertain: %v", tup.Vals[1])
			}
		}
	}
	if !found {
		t.Fatal("no metro group")
	}
}

func TestQueryPathsAgree(t *testing.T) {
	ctx := context.Background()
	db := covidDB(t)
	q := `SELECT size, count(*) AS n FROM locales GROUP BY size`
	native, err := db.QueryContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	rewritten, err := db.QueryContext(ctx, q, WithEngine(EngineRewrite))
	if err != nil {
		t.Fatal(err)
	}
	if native.Len() != rewritten.Len() || native.PossibleSize() != rewritten.PossibleSize() {
		t.Fatalf("paths disagree:\n%s\nvs\n%s", native, rewritten)
	}
	sgw, err := db.QueryContext(ctx, q, WithEngine(EngineSGW))
	if err != nil {
		t.Fatal(err)
	}
	if !native.SGW().Equal(sgw.SGW()) {
		t.Fatal("SGW embedding broken")
	}
}

// TestAddRowArity: a row whose length differs from the schema panics in
// AddRow, naming the table and both counts, instead of being stored and
// corrupting later queries and Analyze.
func TestAddRowArity(t *testing.T) {
	cases := []struct {
		name string
		got  int
		load func(db *Database)
	}{
		{"certain row, short", 1, func(db *Database) {
			ut := NewUncertainTable("t", "a", "b")
			ut.AddCertainRow(Int(1))
			ut.AddCertainRow(Int(2), Int(3))
			db.Add(ut)
		}},
		{"range row, long", 3, func(db *Database) {
			ut := NewUncertainTable("t", "a", "b")
			ut.AddRow(RangeRow{CertainOf(Int(1)), CertainOf(Int(2)), CertainOf(Int(3))}, CertainMult(1))
			db.Add(ut)
		}},
		{"deterministic row, short", 1, func(db *Database) {
			tb := NewTable("t", "a", "b")
			tb.AddRow(Int(1))
			tb.AddRow(Int(2), Int(3))
			db.AddDeterministic(tb)
		}},
	}
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			db := New()
			c.load(db)
			if _, err := db.Analyze("t"); err != nil {
				return err.Error()
			}
			return "no panic"
		}()
		want := fmt.Sprintf(`audb: table "t": row has %d values, want 2 columns`, c.got)
		if msg != want {
			t.Errorf("%s: got %q, want panic %q", c.name, msg, want)
		}
	}
}

// TestRegisterArity: rows of the wrong length that bypass AddRow — added
// to the underlying relation, handed over pre-built, or streamed through
// a loader — are rejected before they reach storage, with AddRow's
// message, by every registration entry point. A row appended to a
// registered table's relation is rejected by the columnar append itself,
// with a message naming both arities.
func TestRegisterArity(t *testing.T) {
	short := core.Tuple{Vals: RangeRow{CertainOf(Int(1))}, M: CertainMult(1)}
	cases := []struct {
		name string
		got  int
		load func(db *Database)
		want string // the panic, when not AddRow's
	}{
		{"Add, short row in the relation", 1, func(db *Database) {
			ut := NewUncertainTable("t", "a", "b")
			ut.Rel().Add(short)
			db.Add(ut)
		}, ""},
		{"AddDeterministic, long row in the relation", 3, func(db *Database) {
			tb := NewTable("t", "a", "b")
			tb.Rel().Add(Row{Int(1), Int(2), Int(3)}, 1)
			db.AddDeterministic(tb)
		}, ""},
		{"AddRelation, short row", 1, func(db *Database) {
			rel := core.New(schema.New("a", "b"))
			rel.Add(short)
			db.AddRelation("t", rel)
		}, ""},
		{"loader, long row", 3, func(db *Database) {
			ld := db.NewLoader("t", "a", "b")
			ld.Add(RangeRow{CertainOf(Int(1)), CertainOf(Int(2)), CertainOf(Int(3))}, CertainMult(1))
			ld.Commit()
		}, ""},
		{"loader, short row", 1, func(db *Database) {
			ld := db.NewLoader("t", "a", "b")
			ld.Add(short.Vals, short.M)
			ld.Commit()
		}, ""},
		{"append to a registered table, short row", 1, func(db *Database) {
			ut := NewUncertainTable("t", "a", "b")
			ut.AddCertainRow(Int(1), Int(2))
			db.Add(ut)
			rel, _ := db.Relation("t")
			rel.Add(core.Tuple{Vals: RangeRow{CertainOf(Int(7))}, M: CertainMult(1)})
		}, "core: row has 1 values, want 2 columns"},
	}
	for _, c := range cases {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			db := New()
			c.load(db)
			if _, err := db.Analyze("t"); err != nil {
				return err.Error()
			}
			return "no panic"
		}()
		want := c.want
		if want == "" {
			want = fmt.Sprintf(`audb: table "t": row has %d values, want 2 columns`, c.got)
		}
		if msg != want {
			t.Errorf("%s: got %q, want panic %q", c.name, msg, want)
		}
	}
}

func TestDeterministicTables(t *testing.T) {
	db := New()
	tbl := NewTable("t", "a", "b").
		AddRow(Int(1), Str("x")).
		AddRow(Int(2), Str("y"))
	db.AddDeterministic(tbl)
	res, err := db.QueryContext(context.Background(), `SELECT a FROM t WHERE b = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Tuples[0].M != CertainMult(1) {
		t.Fatalf("deterministic query:\n%s", res)
	}
	if tbl.Rel().Len() != 2 {
		t.Error("Rel accessor")
	}
}

func TestRepairKeyAPI(t *testing.T) {
	tbl := NewTable("c", "id", "v").
		AddRow(Int(1), Int(10)).
		AddRow(Int(1), Int(30)).
		AddRow(Int(2), Int(5))
	rel, err := RepairKey(tbl, "id")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("repairs:\n%s", rel)
	}
	if _, err := RepairKey(tbl, "nope"); err == nil {
		t.Error("unknown key column should error")
	}
}

func TestUncertainInputModels(t *testing.T) {
	x := NewXTable("k", "v")
	x.AddBlock(XBlock{Alts: []Row{{Int(1), Int(10)}, {Int(1), Int(20)}}})
	au := FromXTable(x)
	if au.Len() != 1 {
		t.Fatal("x translation")
	}
	ti := NewXTable("k")
	ti.AddBlock(XBlock{Alts: []Row{{Int(1)}}, Probs: []float64{0.4}})
	rel, err := FromTITable(ti)
	if err != nil || rel.Len() != 1 {
		t.Fatalf("TI translation: %v", err)
	}
	if _, err := FromTITable(x); err == nil {
		t.Error("multi-alternative TI should error")
	}
	ct := &CTable{}
	ct.Schema = x.Schema
	if _, err := FromCTable(ct, 10); err == nil {
		// Empty C-table has one (empty) valuation and no rows; either an
		// empty relation or an error is acceptable; just don't panic.
		_ = err
	}
	v := MakeUncertain(Int(1), Int(2), Int(3))
	if !v.Valid() {
		t.Error("MakeUncertain")
	}
}

func TestValuesAndMultiplicities(t *testing.T) {
	if Int(1).AsInt() != 1 || Float(1.5).AsFloat() != 1.5 || Str("s").AsString() != "s" {
		t.Error("constructors")
	}
	if !Bool(true).AsBool() || !Null().IsNull() {
		t.Error("bool/null")
	}
	if !types.Less(NegInfinity(), PosInfinity()) {
		t.Error("infinities")
	}
	if CertainMult(2) != (Multiplicity{Lo: 2, SG: 2, Hi: 2}) {
		t.Error("CertainMult")
	}
	if MaybeMult() != (Multiplicity{Lo: 0, SG: 1, Hi: 1}) {
		t.Error("MaybeMult")
	}
	if Mult(0, 1, 2) != (Multiplicity{Lo: 0, SG: 1, Hi: 2}) {
		t.Error("Mult")
	}
	fr := FullRange(Int(5))
	if !fr.Contains(Str("zzz")) {
		t.Error("FullRange")
	}
}

func TestErrorsSurface(t *testing.T) {
	ctx := context.Background()
	db := New()
	if _, err := db.QueryContext(ctx, "SELECT * FROM missing"); err == nil {
		t.Error("missing table")
	}
	if _, err := db.QueryContext(ctx, "NOT SQL AT ALL"); err == nil {
		t.Error("parse error")
	}
	if _, err := db.QueryContext(ctx, "SELECT", WithEngine(EngineRewrite)); err == nil {
		t.Error("rewrite parse error")
	}
	if _, err := db.QueryContext(ctx, "SELECT", WithEngine(EngineSGW)); err == nil {
		t.Error("sgw parse error")
	}
	if _, err := db.Relation("missing"); err == nil {
		t.Error("missing relation")
	}
	// DISTINCT through the middleware is rejected with a helpful message.
	tbl := NewUncertainTable("t", "a")
	tbl.AddCertainRow(Int(1))
	db.Add(tbl)
	_, err := db.QueryContext(ctx, "SELECT DISTINCT a FROM t", WithEngine(EngineRewrite))
	if err == nil || !strings.Contains(err.Error(), "DISTINCT") {
		t.Errorf("distinct rewrite: %v", err)
	}
	// ... but works on the native engine.
	if _, err := db.QueryContext(ctx, "SELECT DISTINCT a FROM t"); err != nil {
		t.Errorf("native distinct: %v", err)
	}
}

func TestOptionsAndPlan(t *testing.T) {
	ctx := context.Background()
	db := covidDB(t)
	db.SetOptions(Options{JoinCompression: 8, AggCompression: 8})
	res, err := db.QueryContext(ctx, `SELECT size, sum(rate) AS s FROM locales GROUP BY size`)
	if err != nil || res.Len() == 0 {
		t.Fatalf("compressed query: %v", err)
	}
	plan, err := db.Plan(`SELECT locale FROM locales WHERE rate > 10`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = db.ExecPlan(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("plan query")
	}
	rel, err := db.Relation("locales")
	if err != nil || rel.Len() != 3 {
		t.Fatal("Relation accessor")
	}
	// Direct expression use through the public surface.
	e := expr.Gt(expr.Col(0, "x"), expr.CInt(1))
	if e.String() == "" {
		t.Error("expr rendering")
	}
}

// diffOverflowDB holds the tables of the difference's SG overflow: u and
// w have two rows 1 whose SG multiplicities sum past int64, u's certainly
// present and w's possibly absent, and v one row 1.
func diffOverflowDB() *Database {
	const half = math.MaxInt64/2 + 5
	db := New()
	db.Add(NewUncertainTable("u", "a").
		AddRow(RangeRow{CertainOf(Int(1))}, Mult(1, half, half)).
		AddRow(RangeRow{CertainOf(Int(1))}, Mult(1, half, half)))
	db.Add(NewUncertainTable("w", "a").
		AddRow(RangeRow{CertainOf(Int(1))}, Mult(0, half, half)).
		AddRow(RangeRow{CertainOf(Int(1))}, Mult(0, half, half)))
	db.Add(NewUncertainTable("v", "a").AddRow(RangeRow{CertainOf(Int(1))}, Mult(1, 1, 1)))
	return db
}

// TestDiffSGOverflow: a difference whose left side's SG-combined
// multiplicity, or whose right side's SG sum, leaves int64 reports an
// integer overflow in both executors, and so does a DISTINCT, which
// SG-combines too. The sums used to wrap: the first query returned (1) at
// (0,0,MaxInt64), the second (1) at (0,1,1).
func TestDiffSGOverflow(t *testing.T) {
	db := diffOverflowDB()
	for _, q := range []string{
		`SELECT a FROM u EXCEPT SELECT a FROM u WHERE a > 5`,
		`SELECT a FROM v EXCEPT SELECT a FROM w`,
		`SELECT DISTINCT a FROM u`,
	} {
		for _, mode := range []ExecMode{ExecPipelined, ExecMaterialized} {
			res, err := db.QueryContext(context.Background(), q, WithExecMode(mode))
			if err == nil || !strings.Contains(err.Error(), "integer overflow") {
				t.Fatalf("%s, mode %v: %v, %v; want an integer overflow", q, mode, res, err)
			}
		}
	}
}

// TestLimitSGOverflow: LIMIT and top-k merge duplicate rows, and over the
// table u the merged row's SG multiplicity leaves int64. Both executors
// report an integer overflow; the pipelined LIMIT and top-k used to wrap it
// to (2,-9223372036854775800,MaxInt64).
func TestLimitSGOverflow(t *testing.T) {
	db := diffOverflowDB()
	for _, q := range []string{
		`SELECT a FROM u LIMIT 5`,
		`SELECT a FROM u ORDER BY a LIMIT 5`,
	} {
		for _, mode := range []ExecMode{ExecPipelined, ExecMaterialized} {
			res, err := db.QueryContext(context.Background(), q, WithExecMode(mode))
			if err == nil || !strings.Contains(err.Error(), "integer overflow") {
				t.Fatalf("%s, mode %v: %v, %v; want an integer overflow", q, mode, res, err)
			}
		}
	}
}

// TestJoinSGOverflow: a self-join of one row of multiplicity 3.1e9 has an
// SG multiplicity past int64. Both executors report it as an integer
// overflow; the join used to wrap it to a negative multiplicity.
func TestJoinSGOverflow(t *testing.T) {
	db := New()
	db.Add(NewUncertainTable("u", "a").AddRow(RangeRow{CertainOf(Int(1))}, Mult(3_100_000_000, 3_100_000_000, 3_100_000_000)))
	for _, mode := range []ExecMode{ExecPipelined, ExecMaterialized} {
		res, err := db.QueryContext(context.Background(), `SELECT x.a FROM u x JOIN u y ON x.a = y.a`, WithExecMode(mode))
		if err == nil || !strings.Contains(err.Error(), "integer overflow") {
			t.Fatalf("mode %v: %v, %v; want an integer overflow", mode, res, err)
		}
	}
}
