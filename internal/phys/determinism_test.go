package phys

import (
	"context"
	"math/rand"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/types"
)

// floatGroupsDB is a table r(g, x) whose float measure x carries ranges
// and a third of whose group keys g are uncertain, so most output groups
// get an uncertain box and fold the point contributions of many keys.
func floatGroupsDB(rows int) core.DB {
	rng := rand.New(rand.NewSource(5))
	rel := core.New(schema.New("g", "x"))
	for i := 0; i < rows; i++ {
		g := int64(rng.Intn(40))
		gv := rangeval.Certain(types.Int(g))
		if i%3 == 0 {
			gv = rangeval.New(types.Int(g-1), types.Int(g), types.Int(g+1))
		}
		x := rng.Float64() * 1000
		d := rng.Float64() * 3
		xv := rangeval.New(types.Float(x-d), types.Float(x), types.Float(x+d))
		rel.Add(core.Tuple{Vals: rangeval.Tuple{gv, xv}, M: core.One})
	}
	return core.DB{"r": rel}
}

// TestFloatAggregationDeterministic: a float sum/avg over uncertain group
// boxes renders byte-identically on every run, every worker count and both
// executors. The bounds must be summed in one fixed order; any dependence
// on map iteration shows up as last-digit jitter.
func TestFloatAggregationDeterministic(t *testing.T) {
	ctx := context.Background()
	db := floatGroupsDB(1200)
	plan, err := sql.Compile(`SELECT g, sum(x) AS s, avg(x) AS a FROM r GROUP BY g`,
		ra.CatalogMap(db.Schemas()))
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for run := 0; run < 20; run++ {
		for _, w := range []int{1, 4} {
			o := core.Options{Workers: w}
			ref, err := core.Exec(ctx, plan, db, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Exec(ctx, plan, db, Options{Exec: o})
			if err != nil {
				t.Fatal(err)
			}
			if want == "" {
				want = ref.String()
			}
			if s := ref.String(); s != want {
				t.Fatalf("core.Exec run %d workers %d differs from the first run:\n%s\nfirst:\n%s", run, w, s, want)
			}
			if s := got.String(); s != want {
				t.Fatalf("phys.Exec run %d workers %d differs from the first run:\n%s\nfirst:\n%s", run, w, s, want)
			}
		}
	}
}
