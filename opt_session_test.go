package audb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// optCorpus is a randomized query corpus covering pushdown targets
// (joins, unions, projections) and pushdown barriers (difference,
// distinct, aggregation, order/limit) through the SQL front end.
func optCorpus(rng *rand.Rand) []string {
	k := func() int { return rng.Intn(6) }
	return []string{
		fmt.Sprintf(`SELECT a, b FROM r WHERE a <= %d AND b > %d`, k(), k()),
		fmt.Sprintf(`SELECT r.a, s.d FROM r JOIN s ON r.a = s.c WHERE r.b < %d`, k()),
		fmt.Sprintf(`SELECT r.b, s.d FROM r, s WHERE r.a = s.c AND s.d >= %d`, k()),
		fmt.Sprintf(`SELECT b, sum(a) AS s, count(*) AS n FROM r WHERE a < %d GROUP BY b`, k()),
		fmt.Sprintf(`SELECT b, max(a) AS m FROM r GROUP BY b HAVING max(a) >= %d`, k()),
		fmt.Sprintf(`SELECT a FROM r WHERE a < %d UNION SELECT c FROM s WHERE d > %d`, k(), k()),
		fmt.Sprintf(`SELECT a FROM r EXCEPT SELECT c FROM s WHERE d = %d`, k()),
		fmt.Sprintf(`SELECT a, b FROM r WHERE a BETWEEN %d AND %d ORDER BY a LIMIT 3`, k(), k()+3),
		fmt.Sprintf(`SELECT x.ab, count(*) AS n FROM (SELECT a + b AS ab FROM r WHERE a <> %d) x GROUP BY x.ab`, k()),
		fmt.Sprintf(`SELECT r.a, s.c FROM r JOIN s ON r.a = s.c WHERE r.b < %d AND s.d >= %d`, k(), k()),
	}
}

// TestStmtCachesOptimizedPlan: prepared statements must serve the
// optimized plan and stay bit-identical to unprepared execution, on
// every engine.
func TestStmtCachesOptimizedPlan(t *testing.T) {
	ctx := context.Background()
	db := randomDB(rand.New(rand.NewSource(33)), 8)
	q := `SELECT r.b, s.d FROM r, s WHERE r.a = s.c AND r.b <= 3`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []Engine{EngineNative, EngineRewrite, EngineSGW} {
		want, err := db.QueryContext(ctx, q, WithEngine(eng))
		if err != nil {
			t.Fatalf("[%s] unprepared: %v", eng, err)
		}
		for i := 0; i < 3; i++ {
			got, err := stmt.Exec(ctx, WithEngine(eng))
			if err != nil {
				t.Fatalf("[%s] prepared: %v", eng, err)
			}
			if want.Sort().String() != got.Sort().String() {
				t.Fatalf("[%s] prepared result differs from unprepared", eng)
			}
		}
	}
}

// TestExplain: the explanation carries both plans and the rule trace,
// and renders them; Explain does not execute anything.
func TestExplain(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(9)), 4)
	exp, err := db.Explain(`SELECT r.b, s.d FROM r, s WHERE r.a = s.c AND r.b <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Plan == "" || exp.Optimized == "" || exp.Passes < 1 {
		t.Fatalf("incomplete explanation: %+v", exp)
	}
	if len(exp.Rules) == 0 {
		t.Fatal("expected rule applications for a pushable query")
	}
	if !strings.Contains(exp.Plan, "CrossProduct") {
		t.Fatalf("compiled plan should contain the cross product:\n%s", exp.Plan)
	}
	if strings.Contains(exp.Optimized, "CrossProduct") {
		t.Fatalf("optimized plan should have an equi-join:\n%s", exp.Optimized)
	}
	text := exp.String()
	for _, want := range []string{"query:", "plan:", "optimized:", "rule "} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendering missing %q:\n%s", want, text)
		}
	}
	// A query with nothing to optimize reports that.
	plain, err := db.Explain(`SELECT a FROM r`)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Rules) != 0 {
		// Identity-projection elimination may legitimately fire here;
		// only insist the rendering stays consistent.
		if !strings.Contains(plain.String(), "optimized:") {
			t.Fatalf("trace rendering inconsistent:\n%s", plain.String())
		}
	} else if !strings.Contains(plain.String(), "no rules applied") {
		t.Fatalf("no-op optimization should say so:\n%s", plain.String())
	}
	// Errors propagate.
	if _, err := db.Explain(`SELECT nope FROM r`); err == nil {
		t.Fatal("unknown column should error")
	}
}
