package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// sharedSlotInput is r(g, a) over 40 groups: most keys are certain, a few
// are ranges around 3, 17 and 30 that widen those groups' boxes and
// overlap their neighbours, so the result mixes certain-box and
// uncertain-box groups and box contributions that reach several groups.
// The float measure a carries ranges and uncertain multiplicities, and
// nulls in the last four groups.
func sharedSlotInput(rng *rand.Rand, rows int) *Relation {
	r := New(schema.New("g", "a"))
	for i := 0; i < rows; i++ {
		g := rangeval.Certain(types.Int(int64(rng.Intn(40))))
		if rng.Intn(8) == 0 {
			sg := []int64{3, 17, 30}[rng.Intn(3)]
			g = rangeval.New(types.Int(sg-int64(rng.Intn(3))), types.Int(sg), types.Int(sg+int64(rng.Intn(3))))
		}
		x := float64(rng.Intn(2000)-500) / 8
		a := rangeval.Certain(types.Float(x))
		switch {
		case rng.Intn(5) == 0:
			a = rangeval.New(types.Float(x-float64(rng.Intn(50))/3), types.Float(x), types.Float(x+float64(rng.Intn(50))/7))
		case g.SG.AsInt() >= 36 && rng.Intn(3) == 0:
			// Nulls only in the last groups: they absorb a sum.
			a = rangeval.Certain(types.Null())
		}
		m := One
		if rng.Intn(5) == 0 {
			m = Mult{Lo: 0, SG: 1, Hi: 1 + int64(rng.Intn(3))}
		}
		r.Add(Tuple{Vals: rangeval.Tuple{g, a}, M: m})
	}
	return r
}

// TestSharedSlotsInvisible: sum(a) and avg(a) share an accumulator, as do
// count(*) and avg's count. The sharing must not show: every column of
// the combined query is byte-identical to that aggregate computed alone,
// at every worker count and with and without aggregation compression.
func TestSharedSlotsInvisible(t *testing.T) {
	ctx := context.Background()
	a := expr.Col(1, "a")
	specs := []ra.AggSpec{
		{Fn: ra.AggSum, Arg: a, Name: "s"},
		{Fn: ra.AggAvg, Arg: a, Name: "m"},
		{Fn: ra.AggCount, Name: "n"},
		{Fn: ra.AggCount, Arg: a, Name: "c"},
		{Fn: ra.AggMin, Arg: a, Name: "lo"},
		{Fn: ra.AggMax, Arg: a, Name: "hi"},
	}
	names := []string{"g"}
	for _, s := range specs {
		names = append(names, s.Name)
	}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		in := sharedSlotInput(rand.New(rand.NewSource(int64(trial*17+3))), 600)
		for _, comp := range []int{0, 3} {
			for _, w := range []int{1, 4} {
				opt := Options{Workers: w, AggCompression: comp}
				all, err := AggRelations(ctx, in, []int{0}, specs, schema.New(names...), opt)
				if err != nil {
					t.Fatal(err)
				}
				mixed := false
				for _, row := range all.Tuples {
					mixed = mixed || !row.Vals[0].IsCertain()
				}
				if !mixed || all.Len() < 32 {
					t.Fatalf("input lacks uncertain-box groups or chunks: %d groups", all.Len())
				}
				for j, s := range specs {
					alone, err := AggRelations(ctx, in, []int{0}, specs[j:j+1], schema.New("g", s.Name), opt)
					if err != nil {
						t.Fatal(err)
					}
					if alone.Len() != all.Len() {
						t.Fatalf("%s alone: %d groups, combined %d", s.Name, alone.Len(), all.Len())
					}
					for i, row := range all.Tuples {
						got := Tuple{Vals: rangeval.Tuple{row.Vals[0], row.Vals[1+j]}, M: row.M}
						if got.String() != alone.Tuples[i].String() {
							t.Fatalf("trial %d comp %d workers %d, %s group %d: combined %s, alone %s",
								trial, comp, w, s.Name, i, got, alone.Tuples[i])
						}
					}
				}
			}
		}
	}
}

// TestAggErrorSameAcrossWorkers: when several contributions fail, every
// worker count reports the failure the serial walk meets first. Here a
// point contribution of the last group fails before (in walk order) a box
// contribution of the first group, though they land in different chunks.
func TestAggErrorSameAcrossWorkers(t *testing.T) {
	r := New(schema.New("g", "x"))
	for g := int64(0); g < 40; g++ {
		r.Add(Tuple{Vals: rangeval.Tuple{civ(g), civ(g)}, M: One})
	}
	r.Add(Tuple{Vals: rangeval.Tuple{civ(39), cst("late")}, M: One})
	r.Add(Tuple{Vals: rangeval.Tuple{iv(0, 0, 1), cst("early")}, M: One})
	specs := []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(1, "x"), Name: "s"}}
	var want string
	for _, w := range []int{1, 2, 4} {
		_, err := AggRelations(context.Background(), r, []int{0}, specs, schema.New("g", "s"), Options{Workers: w})
		if err == nil {
			t.Fatalf("workers %d: sum over strings did not fail", w)
		}
		if want == "" {
			want = err.Error()
		}
		if err.Error() != want {
			t.Fatalf("workers %d: %v, serial: %s", w, err, want)
		}
	}
	if !strings.Contains(want, "late") {
		t.Fatalf("serial error %q is not the first failure in walk order", want)
	}
}
