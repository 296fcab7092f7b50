package core

import (
	"testing"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// certainRelations builds the same all-certain two-column relation in both
// representations.
func certainRelations(rows int) (dense, sparse *Relation) {
	sch := schema.New("a", "b")
	dense = New(sch)
	bs := NewRelationBuilder(sch, rows)
	for i := 0; i < rows; i++ {
		t := Tuple{
			Vals: rangeval.Tuple{
				rangeval.Certain(types.Int(int64(i % 16))),
				rangeval.Certain(types.Int(int64(i))),
			},
			M: Mult{Lo: 1, SG: 1, Hi: 1},
		}
		dense.Add(t)
		bs.Add(t)
	}
	return dense, bs.Finish()
}

// TestBuilderRepresentations: the builder's Finish stores columnar, and a
// relation built row by row agrees with it tuple for tuple.
func TestBuilderRepresentations(t *testing.T) {
	dense, sparse := certainRelations(100)
	if dense.IsSparse() || !sparse.IsSparse() {
		t.Fatalf("representations: dense sparse=%v, sparse sparse=%v", dense.IsSparse(), sparse.IsSparse())
	}
	if repr, flat, multFlat := sparse.StorageDetail(); repr != ReprSparse || flat != 2 || !multFlat {
		t.Fatalf("sparse storage detail = %v, %d flat cols, flat mults %v; want sparse, 2, true", repr, flat, multFlat)
	}
	if dense.String() != sparse.String() {
		t.Fatalf("representations render differently:\n%s\nvs\n%s", dense, sparse)
	}
	back := sparse.Dense()
	if back.IsSparse() || back.Len() != dense.Len() {
		t.Fatal("Dense() did not round-trip")
	}
	for i, want := range dense.Tuples {
		got := back.Tuples[i]
		if want.M != got.M || len(want.Vals) != len(got.Vals) {
			t.Fatalf("row %d diverged: %v vs %v", i, want, got)
		}
		for c := range want.Vals {
			if types.Compare(want.Vals[c].SG, got.Vals[c].SG) != 0 {
				t.Fatalf("row %d col %d diverged: %v vs %v", i, c, want.Vals[c], got.Vals[c])
			}
		}
	}
}
