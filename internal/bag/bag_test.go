package bag

import (
	"context"
	"strings"
	"testing"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

func row(vs ...interface{}) types.Tuple {
	out := make(types.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			out[i] = types.Int(int64(x))
		case int64:
			out[i] = types.Int(x)
		case float64:
			out[i] = types.Float(x)
		case string:
			out[i] = types.String(x)
		case bool:
			out[i] = types.Bool(x)
		case types.Value:
			out[i] = x
		default:
			panic("bad row value")
		}
	}
	return out
}

func testDB() DB {
	r := New(schema.New("a", "b"))
	r.Add(row(1, "x"), 2)
	r.Add(row(2, "y"), 1)
	r.Add(row(3, "x"), 1)
	s := New(schema.New("c", "d"))
	s.Add(row(1, 10), 1)
	s.Add(row(2, 20), 3)
	s.Add(row(9, 90), 1)
	return DB{"r": r, "s": s}
}

func mustExec(t *testing.T, n ra.Node, db DB) *Relation {
	t.Helper()
	out, err := Exec(context.Background(), n, db)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	return out
}

func TestRelationBasics(t *testing.T) {
	r := New(schema.New("a"))
	r.Add(row(1), 2)
	r.Add(row(1), 3)
	r.Add(row(2), 0) // dropped
	r.Add(row(3), -1)
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.Size() != 5 {
		t.Errorf("Size = %d", r.Size())
	}
	r.Merge()
	if r.Len() != 1 || r.Counts[0] != 5 {
		t.Error("Merge sums duplicates")
	}
	if r.Count(row(1)) != 5 || r.Count(row(9)) != 0 {
		t.Error("Count")
	}
	c := r.Clone()
	c.Tuples[0][0] = types.Int(99)
	if !types.Same(r.Tuples[0][0], types.Int(1)) {
		t.Error("Clone aliases tuples")
	}
	if !strings.Contains(r.String(), "x5") {
		t.Errorf("String: %q", r.String())
	}
}

func TestSortAndEqual(t *testing.T) {
	r := New(schema.New("a"))
	r.Add(row(3), 1)
	r.Add(row(1), 2)
	r.Add(row(2), 1)
	r.Sort()
	if !types.Same(r.Tuples[0][0], types.Int(1)) || r.Counts[0] != 2 {
		t.Error("Sort keeps counts aligned")
	}
	o := New(schema.New("a"))
	o.Add(row(2), 1)
	o.Add(row(1), 2)
	o.Add(row(3), 1)
	if !r.Equal(o) {
		t.Error("Equal should be order-insensitive")
	}
	o.Add(row(4), 1)
	if r.Equal(o) {
		t.Error("Equal detects extra tuple")
	}
	p := New(schema.New("a"))
	p.Add(row(1), 1)
	p.Add(row(2), 1)
	p.Add(row(3), 1)
	if r.Equal(p) {
		t.Error("Equal detects count mismatch")
	}
}

func TestScanSelect(t *testing.T) {
	db := testDB()
	out := mustExec(t, &ra.Select{
		Child: &ra.Scan{Table: "r"},
		Pred:  expr.Eq(expr.Col(1, "b"), expr.CStr("x")),
	}, db)
	if out.Size() != 3 {
		t.Errorf("selected size %d", out.Size())
	}
	if _, err := Exec(context.Background(), &ra.Scan{Table: "none"}, db); err == nil {
		t.Error("unknown table should error")
	}
	if _, err := Exec(context.Background(), &ra.Select{Child: &ra.Scan{Table: "r"}, Pred: expr.Div(expr.CInt(1), expr.CInt(0))}, db); err == nil {
		t.Error("predicate error should surface")
	}
}

func TestProject(t *testing.T) {
	db := testDB()
	out := mustExec(t, &ra.Project{
		Child: &ra.Scan{Table: "r"},
		Cols:  []ra.ProjCol{{E: expr.Col(1, "b"), Name: "b"}},
	}, db)
	// (x) has multiplicity 2+1=3, (y) 1; merged
	if out.Len() != 2 || out.Count(row("x")) != 3 || out.Count(row("y")) != 1 {
		t.Errorf("projection: %s", out)
	}
	// Generalized projection computes expressions.
	out = mustExec(t, &ra.Project{
		Child: &ra.Scan{Table: "r"},
		Cols:  []ra.ProjCol{{E: expr.Add(expr.Col(0, "a"), expr.CInt(10)), Name: "a10"}},
	}, db)
	if out.Count(row(11)) != 2 {
		t.Errorf("computed projection: %s", out)
	}
}

func TestHashJoinAndThetaJoin(t *testing.T) {
	db := testDB()
	// Equi join r.a = s.c
	out := mustExec(t, &ra.Join{
		Left:  &ra.Scan{Table: "r"},
		Right: &ra.Scan{Table: "s"},
		Cond:  expr.Eq(expr.Col(0, "a"), expr.Col(2, "c")),
	}, db)
	// (1,x,1,10)x2, (2,y,2,20)x3
	if out.Size() != 5 {
		t.Errorf("join size: %d\n%s", out.Size(), out)
	}
	if out.Count(row(1, "x", 1, 10)) != 2 || out.Count(row(2, "y", 2, 20)) != 3 {
		t.Errorf("join multiplicities:\n%s", out)
	}
	// Theta join a < c
	out = mustExec(t, &ra.Join{
		Left:  &ra.Scan{Table: "r"},
		Right: &ra.Scan{Table: "s"},
		Cond:  expr.Lt(expr.Col(0, "a"), expr.Col(2, "c")),
	}, db)
	want := int64(2*2 + 1 + 2 + 1 + 3 + 1) // each r tuple paired with s tuples having c > a
	// r=(1,x)x2 pairs with c=2 (x3) and c=9 (x1): 2*3+2*1 = 8
	// r=(2,y)x1 pairs with c=9: 1 ; r=(3,x)x1 pairs with c=9: 1
	want = 8 + 1 + 1
	if out.Size() != want {
		t.Errorf("theta join size: %d want %d", out.Size(), want)
	}
	// Cross product (nil cond).
	out = mustExec(t, &ra.Join{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "s"}}, db)
	if out.Size() != 4*5 {
		t.Errorf("cross size: %d", out.Size())
	}
	// Hash join with residual condition.
	out = mustExec(t, &ra.Join{
		Left:  &ra.Scan{Table: "r"},
		Right: &ra.Scan{Table: "s"},
		Cond: expr.And(
			expr.Eq(expr.Col(0, "a"), expr.Col(2, "c")),
			expr.Gt(expr.Col(3, "d"), expr.CInt(15))),
	}, db)
	if out.Size() != 3 || out.Count(row(2, "y", 2, 20)) != 3 {
		t.Errorf("residual join:\n%s", out)
	}
}

func TestUnionDiffDistinct(t *testing.T) {
	db := testDB()
	u := mustExec(t, &ra.Union{
		Left:  &ra.Project{Child: &ra.Scan{Table: "r"}, Cols: []ra.ProjCol{{E: expr.Col(0, "a"), Name: "v"}}},
		Right: &ra.Project{Child: &ra.Scan{Table: "s"}, Cols: []ra.ProjCol{{E: expr.Col(0, "c"), Name: "v"}}},
	}, db)
	if u.Count(row(1)) != 3 || u.Count(row(2)) != 4 || u.Count(row(9)) != 1 {
		t.Errorf("union:\n%s", u)
	}
	d := mustExec(t, &ra.Diff{
		Left:  &ra.Project{Child: &ra.Scan{Table: "r"}, Cols: []ra.ProjCol{{E: expr.Col(0, "a"), Name: "v"}}},
		Right: &ra.Project{Child: &ra.Scan{Table: "s"}, Cols: []ra.ProjCol{{E: expr.Col(0, "c"), Name: "v"}}},
	}, db)
	// r side: 1x2, 2x1, 3x1 ; s side: 1x1, 2x3, 9x1 -> monus: 1x1, 3x1
	if d.Count(row(1)) != 1 || d.Count(row(2)) != 0 || d.Count(row(3)) != 1 {
		t.Errorf("diff:\n%s", d)
	}
	dd := mustExec(t, &ra.Distinct{Child: &ra.Scan{Table: "r"}}, db)
	if dd.Size() != 3 {
		t.Errorf("distinct size: %d", dd.Size())
	}
	// Arity mismatches surface as errors.
	if _, err := Exec(context.Background(), &ra.Union{Left: &ra.Scan{Table: "r"}, Right: &ra.Project{Child: &ra.Scan{Table: "s"}, Cols: []ra.ProjCol{{E: expr.Col(0, ""), Name: "c"}}}}, db); err == nil {
		t.Error("union arity mismatch should error")
	}
	if _, err := Exec(context.Background(), &ra.Diff{Left: &ra.Scan{Table: "r"}, Right: &ra.Project{Child: &ra.Scan{Table: "s"}, Cols: []ra.ProjCol{{E: expr.Col(0, ""), Name: "c"}}}}, db); err == nil {
		t.Error("diff arity mismatch should error")
	}
}

func TestAggregation(t *testing.T) {
	db := testDB()
	// Group r by b: count(*), sum(a), min(a), max(a), avg(a)
	out := mustExec(t, &ra.Agg{
		Child:   &ra.Scan{Table: "r"},
		GroupBy: []int{1},
		Aggs: []ra.AggSpec{
			{Fn: ra.AggCount, Name: "cnt"},
			{Fn: ra.AggSum, Arg: expr.Col(0, "a"), Name: "s"},
			{Fn: ra.AggMin, Arg: expr.Col(0, "a"), Name: "mn"},
			{Fn: ra.AggMax, Arg: expr.Col(0, "a"), Name: "mx"},
			{Fn: ra.AggAvg, Arg: expr.Col(0, "a"), Name: "av"},
		},
	}, db)
	// group x: rows (1,x)x2,(3,x)x1 -> cnt 3, sum 5, min 1, max 3, avg 5/3
	if out.Count(row("x", 3, 5, 1, 3, 5.0/3.0)) != 1 {
		t.Errorf("group x wrong:\n%s", out)
	}
	if out.Count(row("y", 1, 2, 2, 2, 2.0)) != 1 {
		t.Errorf("group y wrong:\n%s", out)
	}
}

func TestAggregationNoGroupByAndEmpty(t *testing.T) {
	db := testDB()
	out := mustExec(t, &ra.Agg{
		Child: &ra.Scan{Table: "r"},
		Aggs: []ra.AggSpec{
			{Fn: ra.AggCount, Name: "cnt"},
			{Fn: ra.AggSum, Arg: expr.Col(0, "a"), Name: "s"},
		},
	}, db)
	if out.Len() != 1 || out.Count(row(4, 7)) != 1 {
		t.Errorf("agg no group:\n%s", out)
	}
	// Empty input: single row with neutral elements.
	empty := &ra.Select{Child: &ra.Scan{Table: "r"}, Pred: expr.CBool(false)}
	out = mustExec(t, &ra.Agg{
		Child: empty,
		Aggs: []ra.AggSpec{
			{Fn: ra.AggCount, Name: "cnt"},
			{Fn: ra.AggSum, Arg: expr.Col(0, "a"), Name: "s"},
			{Fn: ra.AggMin, Arg: expr.Col(0, "a"), Name: "mn"},
			{Fn: ra.AggAvg, Arg: expr.Col(0, "a"), Name: "av"},
		},
	}, db)
	if out.Len() != 1 {
		t.Fatalf("empty agg rows: %d", out.Len())
	}
	got := out.Tuples[0]
	if !types.Same(got[0], types.Int(0)) || !types.Same(got[1], types.Int(0)) {
		t.Errorf("empty count/sum: %v", got)
	}
	if got[2].Kind() != types.KindPosInf {
		t.Errorf("empty min should be +inf: %v", got[2])
	}
	if !types.Same(got[3], types.Float(0)) {
		t.Errorf("empty avg: %v", got[3])
	}
	// Empty input WITH group-by: no rows.
	out = mustExec(t, &ra.Agg{
		Child:   empty,
		GroupBy: []int{1},
		Aggs:    []ra.AggSpec{{Fn: ra.AggCount, Name: "cnt"}},
	}, db)
	if out.Len() != 0 {
		t.Errorf("empty grouped agg rows: %d", out.Len())
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB()
	out := mustExec(t, &ra.Agg{
		Child: &ra.Scan{Table: "r"},
		Aggs: []ra.AggSpec{
			{Fn: ra.AggCount, Arg: expr.Col(1, "b"), Distinct: true, Name: "dc"},
			{Fn: ra.AggSum, Arg: expr.Col(0, "a"), Distinct: true, Name: "ds"},
		},
	}, db)
	// distinct b: {x,y} -> 2 ; distinct a: {1,2,3} -> 6
	if out.Count(row(2, 6)) != 1 {
		t.Errorf("distinct agg:\n%s", out)
	}
}

func TestCountNullSkipping(t *testing.T) {
	r := New(schema.New("v"))
	r.Add(types.Tuple{types.Null()}, 2)
	r.Add(row(5), 1)
	db := DB{"t": r}
	out := mustExec(t, &ra.Agg{
		Child: &ra.Scan{Table: "t"},
		Aggs: []ra.AggSpec{
			{Fn: ra.AggCount, Arg: expr.Col(0, "v"), Name: "c"},
			{Fn: ra.AggCount, Name: "cstar"},
			{Fn: ra.AggSum, Arg: expr.Col(0, "v"), Name: "s"},
		},
	}, db)
	if out.Count(row(1, 3, 5)) != 1 {
		t.Errorf("null handling:\n%s", out)
	}
}

func TestOrderBy(t *testing.T) {
	db := testDB()
	out := mustExec(t, &ra.OrderBy{Child: &ra.Scan{Table: "s"}, Keys: []int{1}, Desc: true}, db)
	if !types.Same(out.Tuples[0][1], types.Int(90)) {
		t.Errorf("order by desc:\n%s", out)
	}
	out = mustExec(t, &ra.OrderBy{Child: &ra.Scan{Table: "s"}, Keys: []int{1}}, db)
	if !types.Same(out.Tuples[0][1], types.Int(10)) {
		t.Errorf("order by asc:\n%s", out)
	}
}

func TestInferSchemaAndValidate(t *testing.T) {
	db := testDB()
	cat := ra.CatalogMap(db.Schemas())
	plan := &ra.Agg{
		Child: &ra.Join{
			Left:  &ra.Scan{Table: "r"},
			Right: &ra.Scan{Table: "s"},
			Cond:  expr.Eq(expr.Col(0, "a"), expr.Col(2, "c")),
		},
		GroupBy: []int{1},
		Aggs:    []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(3, "d"), Name: "total"}},
	}
	s, err := ra.InferSchema(plan, cat)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "(b, total)" {
		t.Errorf("schema: %s", s)
	}
	if err := ra.Validate(plan, cat); err != nil {
		t.Errorf("validate: %v", err)
	}
	bad := &ra.Select{Child: &ra.Scan{Table: "r"}, Pred: expr.Eq(expr.Col(9, "?"), expr.CInt(1))}
	if err := ra.Validate(bad, cat); err == nil {
		t.Error("out-of-range predicate should fail validation")
	}
	if got := ra.Tables(plan); len(got) != 2 {
		t.Errorf("tables: %v", got)
	}
	if ra.Render(plan) == "" {
		t.Error("render")
	}
}
