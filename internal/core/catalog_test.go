package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

func catRel(v int64) *Relation {
	r := New(schema.New("a"))
	r.Add(Tuple{Vals: rangeval.Tuple{rangeval.Certain(types.Int(v))}, M: One})
	return r
}

func TestCatalogBasics(t *testing.T) {
	c := NewCatalog()
	if c.Len() != 0 || len(c.Tables()) != 0 {
		t.Fatal("fresh catalog not empty")
	}
	c.Register("zeta", catRel(1))
	c.Register("alpha", catRel(2))
	c.Register("mid", catRel(3))
	if got := c.Tables(); !sort.StringsAreSorted(got) || len(got) != 3 {
		t.Fatalf("Tables() = %v, want 3 sorted names", got)
	}
	if r, ok := c.Lookup("alpha"); !ok || r.Len() != 1 {
		t.Fatal("Lookup alpha")
	}
	if _, ok := c.Lookup("nope"); ok {
		t.Fatal("Lookup nope should miss")
	}
	// Re-registering replaces. (Registered relations may be compacted to
	// the sparse representation, so read rows through the dense view.)
	c.Register("alpha", catRel(9))
	if r, _ := c.Lookup("alpha"); r.Dense().Tuples[0].Vals[0].SG.AsInt() != 9 {
		t.Fatal("Register should replace")
	}
	// ... including under a case-variant spelling: the planner folds
	// names, so the catalog must never hold two case-variants at once.
	c.Register("ALPHA", catRel(10))
	if c.Len() != 3 {
		t.Fatalf("case-variant Register should replace, catalog: %v", c.Tables())
	}
	if r, ok := c.Lookup("alpha"); !ok || r.Dense().Tuples[0].Vals[0].SG.AsInt() != 10 {
		t.Fatal("case-variant Register should be visible through folded Lookup")
	}
	c.Register("alpha", catRel(11))
	c.Drop("mid")
	c.Drop("mid") // no-op
	if c.Len() != 2 {
		t.Fatalf("Len = %d after drop", c.Len())
	}
	if len(c.Schemas()) != 2 || len(c.Snapshot().SGW()) != 2 {
		t.Fatal("Schemas/SGW views")
	}
}

// TestCatalogSnapshotIsolation: a snapshot taken before later
// registrations must not observe them, so in-flight queries are immune to
// concurrent catalog mutation.
func TestCatalogSnapshotIsolation(t *testing.T) {
	c := NewCatalog()
	c.Register("t", catRel(1))
	snap := c.Snapshot()
	c.Register("u", catRel(2))
	c.Drop("t")
	if len(snap) != 1 {
		t.Fatalf("snapshot mutated: %v", snap.Names())
	}
	if _, err := Exec(context.Background(), &ra.Scan{Table: "t"}, snap, Options{}); err != nil {
		t.Fatalf("query over snapshot after Drop: %v", err)
	}
}

// TestCatalogConcurrentAccess is the registration-vs-query race the
// catalog exists to make safe; meaningful under -race.
func TestCatalogConcurrentAccess(t *testing.T) {
	c := NewCatalog()
	c.Register("base", catRel(0))
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.Register(fmt.Sprintf("t%d", i), catRel(int64(i)))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = c.Tables()
			_, _ = c.Lookup("base")
		}
	}()
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := Exec(context.Background(), &ra.Scan{Table: "base"}, c.Snapshot(), Options{}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestCatalogCompactsOnce: registration compacts a dense or empty
// relation once, and from then on the relation is columnar and
// append-only. A snapshot taken before later appends, and before the
// relation is displaced from the catalog (by Register onto its name in
// any spelling, or by Drop) and registered again, keeps exactly the rows
// it pinned, while the catalog's later snapshots see every append.
func TestCatalogCompactsOnce(t *testing.T) {
	c := NewCatalog()
	first := catRel(1)
	c.Register("t", first)
	if !first.IsSparse() {
		t.Fatal("first registration did not compact a non-empty relation")
	}
	row := catRel(4).Dense().Tuples[0]
	displace := map[string]func(){
		"register": func() { c.Register("T", catRel(2)) },
		"drop":     func() { c.Drop("t") },
	}
	for name, fn := range displace {
		rel := New(schema.New("a"))
		c.Register("t", rel)
		if !rel.IsSparse() {
			t.Fatalf("%s: registration left an empty relation dense", name)
		}
		rel.Add(row)
		snap := c.Snapshot()
		rel.Add(row)
		fn()
		c.Register("t", rel)
		rel.Add(row)
		if !rel.IsSparse() || rel.Len() != 3 {
			t.Fatalf("%s: relation columnar=%v with %d rows, want columnar with 3", name, rel.IsSparse(), rel.Len())
		}
		if got, _ := snap.LookupFold("t"); got.Len() != 1 {
			t.Fatalf("%s: the older snapshot holds %d rows, want the 1 it pinned", name, got.Len())
		}
		if got, _ := c.Snapshot().LookupFold("t"); got.Len() != 3 {
			t.Fatalf("%s: a fresh snapshot holds %d rows, want 3", name, got.Len())
		}
	}
	if c.Len() != 1 {
		t.Fatalf("catalog holds %v, want 1 table", c.Tables())
	}
}

// eventObserver records catalog mutation notifications in order.
type eventObserver struct {
	mu     sync.Mutex
	events []string
}

func (o *eventObserver) Registered(name string, r *Relation) {
	o.mu.Lock()
	o.events = append(o.events, "reg:"+name)
	o.mu.Unlock()
}

func (o *eventObserver) Dropped(name string) {
	o.mu.Lock()
	o.events = append(o.events, "drop:"+name)
	o.mu.Unlock()
}

func TestCatalogObserver(t *testing.T) {
	c := NewCatalog()
	obs := &eventObserver{}
	c.SetObserver(obs)
	c.Register("t", catRel(1))
	c.Register("t", catRel(2)) // replacement: Registered only
	c.Register("T", catRel(3)) // case-variant displaces "t"
	c.Drop("nope")             // unknown: no event
	c.Drop("t")                // folds to "T"
	want := []string{"reg:t", "reg:t", "drop:t", "reg:T", "drop:T"}
	if fmt.Sprint(obs.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v, want %v", obs.events, want)
	}
	// Uninstalling stops notifications.
	c.SetObserver(nil)
	c.Register("u", catRel(4))
	if len(obs.events) != len(want) {
		t.Fatalf("observer notified after uninstall: %v", obs.events)
	}
}
