package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

func certRow(vals ...int64) core.Tuple {
	t := make(rangeval.Tuple, len(vals))
	for i, v := range vals {
		t[i] = rangeval.Certain(types.Int(v))
	}
	return core.Tuple{Vals: t, M: core.One}
}

func TestCollectBasic(t *testing.T) {
	rel := core.New(schema.New("a", "b"))
	rel.Add(certRow(1, 10))
	rel.Add(certRow(2, 10))
	rel.Add(certRow(2, 20))
	rel.Add(core.Tuple{
		Vals: rangeval.Tuple{
			rangeval.New(types.Int(3), types.Int(4), types.Int(7)),
			rangeval.Certain(types.Int(30)),
		},
		M: core.Mult{Lo: 0, SG: 1, Hi: 2},
	})
	ts := Collect("t", rel)
	if ts.Rows != 4 || ts.CertainRows != 3 || ts.SGRows != 4 || ts.PossibleRows != 5 {
		t.Fatalf("row counts: %+v", ts)
	}
	if got := ts.CertainTupleFrac; got != 0.75 {
		t.Fatalf("CertainTupleFrac = %v", got)
	}
	a, b := ts.Cols[0], ts.Cols[1]
	if a.Name != "a" || b.Name != "b" {
		t.Fatalf("col names: %+v", ts.Cols)
	}
	if types.Compare(a.MinSG, types.Int(1)) != 0 || types.Compare(a.MaxSG, types.Int(4)) != 0 {
		t.Fatalf("a min/max: %s..%s", a.MinSG, a.MaxSG)
	}
	if a.NDV != 3 || b.NDV != 3 { // a: {1,2,4}, b: {10,20,30}
		t.Fatalf("ndv: a=%d b=%d", a.NDV, b.NDV)
	}
	if !a.Numeric || !b.Numeric {
		t.Fatalf("numeric flags: %+v %+v", a, b)
	}
	if a.CertainFrac != 0.75 || b.CertainFrac != 1 {
		t.Fatalf("certain fracs: a=%v b=%v", a.CertainFrac, b.CertainFrac)
	}
	// One uncertain row of width 7-3=4 over 4 rows.
	if math.Abs(a.MeanWidth-1.0) > 1e-9 {
		t.Fatalf("a mean width = %v", a.MeanWidth)
	}
	if b.MeanWidth != 0 {
		t.Fatalf("b mean width = %v", b.MeanWidth)
	}
	if s := ts.String(); s == "" {
		t.Fatal("empty rendering")
	}
}

func TestCollectNonNumericAndInfinite(t *testing.T) {
	rel := core.New(schema.New("s", "x"))
	rel.Add(core.Tuple{
		Vals: rangeval.Tuple{
			rangeval.Certain(types.String("hi")),
			rangeval.New(types.NegInf(), types.Int(5), types.PosInf()),
		},
		M: core.One,
	})
	rel.Add(certRow0(types.String("lo"), types.Int(15)))
	ts := Collect("t", rel)
	if ts.Cols[0].Numeric {
		t.Fatal("string column marked numeric")
	}
	if ts.Cols[0].MeanWidth != 0 {
		t.Fatalf("string mean width = %v", ts.Cols[0].MeanWidth)
	}
	// The unbounded row contributes the SG spread (15-5=10) over 2 rows.
	if got := ts.Cols[1].MeanWidth; math.Abs(got-5) > 1e-9 {
		t.Fatalf("inf mean width = %v", got)
	}
}

func certRow0(vals ...types.Value) core.Tuple {
	t := make(rangeval.Tuple, len(vals))
	for i, v := range vals {
		t[i] = rangeval.Certain(v)
	}
	return core.Tuple{Vals: t, M: core.One}
}

func TestCollectEmpty(t *testing.T) {
	ts := Collect("e", core.New(schema.New("a")))
	if ts.Rows != 0 || ts.CertainTupleFrac != 1 {
		t.Fatalf("empty: %+v", ts)
	}
	if !ts.Cols[0].MinSG.IsNull() || ts.Cols[0].NDV != 0 || ts.Cols[0].CertainFrac != 1 {
		t.Fatalf("empty col: %+v", ts.Cols[0])
	}
}

// TestDistinctCounterLarge: beyond the exact cap the adaptive-sampling
// estimate must stay within a reasonable relative error.
func TestDistinctCounterLarge(t *testing.T) {
	rel := core.New(schema.New("a"))
	n := 50000
	for i := 0; i < n; i++ {
		rel.Add(certRow(int64(i)))
	}
	ts := Collect("t", rel)
	got := float64(ts.Cols[0].NDV)
	if got < 0.7*float64(n) || got > 1.3*float64(n) {
		t.Fatalf("ndv estimate %v for %d distinct", got, n)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	g := NewRegistry()
	rel := core.New(schema.New("a"))
	rel.Add(certRow(1))
	g.Registered("T1", rel)
	ts, ok := g.TableStats("t1") // case-folded lookup
	if !ok || ts.Rows != 1 || ts.Table != "T1" {
		t.Fatalf("lookup after register: %v %v", ts, ok)
	}
	// Replacement invalidates: new relation, new stats.
	rel2 := core.New(schema.New("a"))
	rel2.Add(certRow(1))
	rel2.Add(certRow(2))
	g.Registered("t1", rel2)
	if ts, ok := g.TableStats("T1"); !ok || ts.Rows != 2 {
		t.Fatalf("stats after replace: %+v %v", ts, ok)
	}
	// Analyze picks up appended rows.
	rel2.Add(certRow(3))
	if ts, ok := g.TableStats("t1"); !ok || ts.Rows != 2 {
		t.Fatalf("cached stats should be stale until Analyze: %+v %v", ts, ok)
	}
	if ts, ok := g.Analyze("t1"); !ok || ts.Rows != 3 {
		t.Fatalf("Analyze: %+v %v", ts, ok)
	}
	if ts, ok := g.TableStats("t1"); !ok || ts.Rows != 3 {
		t.Fatalf("stats after Analyze: %+v %v", ts, ok)
	}
	// Dropped tables are never served again.
	g.Dropped("T1")
	if _, ok := g.TableStats("t1"); ok {
		t.Fatal("stats served for a dropped table")
	}
	if _, ok := g.Analyze("t1"); ok {
		t.Fatal("Analyze succeeded for a dropped table")
	}
	if g.Len() != 0 {
		t.Fatalf("Len = %d", g.Len())
	}
}

// TestRegistryConcurrency races registration, drops, analyzes and reads;
// run with -race. Lazy collection must compute each entry's stats exactly
// once and never serve stats for a table dropped before the read started.
func TestRegistryConcurrency(t *testing.T) {
	g := NewRegistry()
	rel := core.New(schema.New("a"))
	for i := 0; i < 100; i++ {
		rel.Add(certRow(int64(i % 7)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", w%4)
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					g.Registered(name, rel)
				case 1:
					if ts, ok := g.TableStats(name); ok && ts.Rows != 100 {
						t.Errorf("bad stats: %+v", ts)
					}
				case 2:
					g.Analyze(name)
				case 3:
					g.Dropped(name)
				default:
					g.Len()
				}
			}
		}(w)
	}
	wg.Wait()
}
