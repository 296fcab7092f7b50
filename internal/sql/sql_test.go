package sql

import (
	"context"
	"strings"
	"testing"

	"github.com/audb/audb/internal/bag"
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
		case float64:
			out[i] = types.Float(x)
		case string:
			out[i] = types.String(x)
		case types.Value:
			out[i] = x
		default:
			panic("bad value")
		}
	}
	return out
}

func testDB() bag.DB {
	emp := bag.New(schema.New("id", "name", "dept", "salary"))
	emp.Add(row(1, "ann", "eng", 100), 1)
	emp.Add(row(2, "bob", "eng", 80), 1)
	emp.Add(row(3, "cat", "ops", 60), 1)
	emp.Add(row(4, "dan", "ops", 70), 1)
	dept := bag.New(schema.New("name", "city"))
	dept.Add(row("eng", "nyc"), 1)
	dept.Add(row("ops", "sf"), 1)
	return bag.DB{"emp": emp, "dept": dept}
}

func runSQL(t *testing.T, q string) *bag.Relation {
	t.Helper()
	db := testDB()
	plan, err := Compile(q, ra.CatalogMap(db.Schemas()))
	if err != nil {
		t.Fatalf("compile %q: %v", q, err)
	}
	out, err := bag.Exec(context.Background(), plan, db)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	return out
}

func compileErr(t *testing.T, q string) error {
	t.Helper()
	db := testDB()
	_, err := Compile(q, ra.CatalogMap(db.Schemas()))
	if err == nil {
		t.Fatalf("expected error for %q", q)
	}
	return err
}

func TestSelectWhere(t *testing.T) {
	out := runSQL(t, "SELECT name FROM emp WHERE salary > 65")
	if out.Size() != 3 {
		t.Errorf("rows: %d\n%s", out.Size(), out)
	}
	out = runSQL(t, "SELECT name, salary FROM emp WHERE dept = 'eng' AND salary >= 100")
	if out.Size() != 1 || out.Count(row("ann", 100)) != 1 {
		t.Errorf("filtered:\n%s", out)
	}
}

func TestStarAndAliases(t *testing.T) {
	out := runSQL(t, "SELECT * FROM emp")
	if out.Schema.Arity() != 4 || out.Size() != 4 {
		t.Errorf("star:\n%s", out)
	}
	out = runSQL(t, "SELECT salary * 2 AS double_pay FROM emp WHERE id = 1")
	if out.Count(row(200)) != 1 {
		t.Errorf("alias:\n%s", out)
	}
	if out.Schema.Attrs[0] != "double_pay" {
		t.Errorf("alias name: %s", out.Schema)
	}
	// Implicit alias without AS.
	out = runSQL(t, "SELECT salary s FROM emp WHERE id = 1")
	if out.Schema.Attrs[0] != "s" {
		t.Errorf("implicit alias: %s", out.Schema)
	}
}

func TestJoins(t *testing.T) {
	out := runSQL(t, "SELECT e.name, d.city FROM emp e JOIN dept d ON e.dept = d.name WHERE d.city = 'nyc'")
	if out.Size() != 2 {
		t.Errorf("join:\n%s", out)
	}
	// Comma join + WHERE.
	out = runSQL(t, "SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND d.city = 'sf'")
	if out.Size() != 2 {
		t.Errorf("comma join:\n%s", out)
	}
	// CROSS JOIN.
	out = runSQL(t, "SELECT e.name FROM emp e CROSS JOIN dept d")
	if out.Size() != 8 {
		t.Errorf("cross join:\n%s", out)
	}
	// INNER JOIN keyword.
	out = runSQL(t, "SELECT e.name FROM emp e INNER JOIN dept d ON e.dept = d.name")
	if out.Size() != 4 {
		t.Errorf("inner join:\n%s", out)
	}
}

func TestGroupByHaving(t *testing.T) {
	out := runSQL(t, "SELECT dept, sum(salary) AS total, count(*) AS cnt FROM emp GROUP BY dept")
	if out.Count(row("eng", 180, 2)) != 1 || out.Count(row("ops", 130, 2)) != 1 {
		t.Errorf("group by:\n%s", out)
	}
	out = runSQL(t, "SELECT dept, sum(salary) AS total FROM emp GROUP BY dept HAVING sum(salary) > 150")
	if out.Size() != 1 || out.Count(row("eng", 180)) != 1 {
		t.Errorf("having:\n%s", out)
	}
	// avg / min / max.
	out = runSQL(t, "SELECT dept, avg(salary) a, min(salary) mn, max(salary) mx FROM emp GROUP BY dept")
	if out.Count(row("eng", 90.0, 80, 100)) != 1 {
		t.Errorf("avg/min/max:\n%s", out)
	}
	// Aggregation without group-by.
	out = runSQL(t, "SELECT count(*) AS c, sum(salary) AS s FROM emp")
	if out.Count(row(4, 310)) != 1 {
		t.Errorf("global agg:\n%s", out)
	}
	// Expression over aggregates.
	out = runSQL(t, "SELECT dept, sum(salary) / count(*) AS per_head FROM emp GROUP BY dept")
	if out.Count(row("eng", 90.0)) != 1 {
		t.Errorf("agg expr:\n%s", out)
	}
	// Computed group-by expression (division yields floats: 1, .8, .7, .6).
	out = runSQL(t, "SELECT salary / 100, count(*) FROM emp GROUP BY salary / 100")
	if out.Len() != 4 {
		t.Errorf("computed group-by:\n%s", out)
	}
	// Computed group-by with collisions.
	out = runSQL(t, "SELECT count(*) FROM emp GROUP BY salary > 65")
	if out.Len() != 2 {
		t.Errorf("boolean group-by:\n%s", out)
	}
}

func TestCaseBetweenInDistinctOrder(t *testing.T) {
	out := runSQL(t, `SELECT name, CASE WHEN salary >= 80 THEN 'high' ELSE 'low' END AS band FROM emp`)
	if out.Count(row("ann", "high")) != 1 || out.Count(row("cat", "low")) != 1 {
		t.Errorf("case:\n%s", out)
	}
	out = runSQL(t, "SELECT name FROM emp WHERE salary BETWEEN 60 AND 80")
	if out.Size() != 3 {
		t.Errorf("between:\n%s", out)
	}
	out = runSQL(t, "SELECT name FROM emp WHERE dept IN ('ops')")
	if out.Size() != 2 {
		t.Errorf("in:\n%s", out)
	}
	out = runSQL(t, "SELECT DISTINCT dept FROM emp")
	if out.Len() != 2 || out.Size() != 2 {
		t.Errorf("distinct:\n%s", out)
	}
	out = runSQL(t, "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2")
	if out.Len() != 2 || !types.Same(out.Tuples[0][1], types.Int(100)) {
		t.Errorf("order/limit:\n%s", out)
	}
	out = runSQL(t, "SELECT name, salary FROM emp ORDER BY 2")
	if !types.Same(out.Tuples[0][1], types.Int(60)) {
		t.Errorf("positional order:\n%s", out)
	}
}

func TestUnionExceptSubquery(t *testing.T) {
	out := runSQL(t, "SELECT name FROM emp WHERE dept = 'eng' UNION SELECT name FROM emp WHERE salary > 65")
	// eng: ann,bob ; >65: ann,bob,dan -> bag union of 2+3 = 5
	if out.Size() != 5 {
		t.Errorf("union:\n%s", out)
	}
	out = runSQL(t, "SELECT name FROM emp EXCEPT SELECT name FROM emp WHERE dept = 'eng'")
	if out.Size() != 2 {
		t.Errorf("except:\n%s", out)
	}
	out = runSQL(t, `SELECT t.dept, t.total FROM (SELECT dept, sum(salary) AS total FROM emp GROUP BY dept) t WHERE t.total > 150`)
	if out.Size() != 1 || out.Count(row("eng", 180)) != 1 {
		t.Errorf("subquery:\n%s", out)
	}
}

func TestNullAndBooleans(t *testing.T) {
	out := runSQL(t, "SELECT name FROM emp WHERE name IS NOT NULL AND TRUE")
	if out.Size() != 4 {
		t.Errorf("is not null:\n%s", out)
	}
	out = runSQL(t, "SELECT name FROM emp WHERE name IS NULL")
	if out.Size() != 0 {
		t.Errorf("is null:\n%s", out)
	}
	out = runSQL(t, "SELECT least(salary, 75) AS v FROM emp WHERE id = 1")
	if out.Count(row(75)) != 1 {
		t.Errorf("least:\n%s", out)
	}
	out = runSQL(t, "SELECT greatest(salary, -salary) AS v FROM emp WHERE id = 3")
	if out.Count(row(60)) != 1 {
		t.Errorf("greatest/negation:\n%s", out)
	}
	out = runSQL(t, "SELECT count(name) AS c FROM emp")
	if out.Count(row(4)) != 1 {
		t.Errorf("count(col):\n%s", out)
	}
	out = runSQL(t, "SELECT count(DISTINCT dept) AS c FROM emp")
	if out.Count(row(2)) != 1 {
		t.Errorf("count distinct:\n%s", out)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM emp",
		"SELECT name",
		"SELECT name FROM",
		"SELECT name FROM emp WHERE",
		"SELECT name FROM emp GROUP",
		"SELECT name FROM (SELECT name FROM emp)", // missing alias
		"SELECT name FROM emp ORDER",
		"SELECT nope FROM emp",
		"SELECT name FROM nosuch",
		"SELECT sum(salary) FROM emp WHERE sum(salary) > 1",
		"SELECT name, sum(salary) FROM emp GROUP BY dept",
		"SELECT * FROM emp GROUP BY dept",
		"SELECT name FROM emp WHERE salary @ 3",
		"SELECT 'unterminated FROM emp",
		"SELECT name FROM emp LIMIT x",
		"SELECT frob(salary) FROM emp",
		"SELECT name FROM emp UNION SELECT name, salary FROM emp",
		"SELECT name FROM emp ORDER BY salary + 1",
		"SELECT name FROM emp ORDER BY 9",
		"SELECT CASE END FROM emp",
		"SELECT name FROM emp trailing garbage",
		"SELECT group_stuff FROM emp GROUP BY sum(salary)",
	}
	for _, q := range bad {
		compileErr(t, q)
	}
}

func TestCommentsAndSemicolon(t *testing.T) {
	out := runSQL(t, "SELECT name FROM emp -- a comment\nWHERE id = 1;")
	if out.Size() != 1 {
		t.Errorf("comment/semicolon:\n%s", out)
	}
	out = runSQL(t, "SELECT 'it''s' AS s FROM emp WHERE id = 1")
	if out.Count(row("it's")) != 1 {
		t.Errorf("escaped quote:\n%s", out)
	}
}

func TestPlanShape(t *testing.T) {
	db := testDB()
	plan, err := Compile("SELECT dept, sum(salary) AS t FROM emp GROUP BY dept HAVING sum(salary) > 10 ORDER BY dept", ra.CatalogMap(db.Schemas()))
	if err != nil {
		t.Fatal(err)
	}
	rendered := ra.Render(plan)
	for _, want := range []string{"OrderBy", "Project", "Select", "Agg", "Scan(emp)"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("plan missing %s:\n%s", want, rendered)
		}
	}
}
