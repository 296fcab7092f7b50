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

// TestAppendKeepsViews: appends to a columnar relation never change a view
// pinned before them, also when an uncertain row turns a flat column and
// the flat multiplicities into triples; and a row appended to a view goes
// to a copy of its columns, never into the storage the view shares with
// its table.
func TestAppendKeepsViews(t *testing.T) {
	_, rel := certainRelations(4)
	before := rel.View()
	if rel.View() != before {
		t.Fatal("an unchanged relation pinned a second view")
	}
	row := func(a, b int64, m Mult) Tuple {
		return Tuple{Vals: rangeval.Tuple{rangeval.Certain(types.Int(a)), rangeval.New(types.Int(0), types.Int(b), types.Int(9))}, M: m}
	}
	rel.Add(row(7, 7, Mult{Lo: 0, SG: 1, Hi: 1}))
	if _, flat, multFlat := before.StorageDetail(); before.Len() != 4 || flat != 2 || !multFlat {
		t.Fatalf("the earlier view changed: %d rows, %d flat columns, flat multiplicities %v", before.Len(), flat, multFlat)
	}
	if _, flat, multFlat := rel.StorageDetail(); rel.Len() != 5 || flat != 1 || multFlat {
		t.Fatalf("after an uncertain append: %d rows, %d flat columns, flat multiplicities %v; want 5, 1, false", rel.Len(), flat, multFlat)
	}
	view := rel.View()
	view.Add(row(8, 8, One))
	rel.Add(row(9, 9, One))
	last := func(r *Relation) int64 {
		d := r.Dense().Tuples
		return d[len(d)-1].Vals[0].SG.AsInt()
	}
	if view.Len() != 6 || rel.Len() != 6 || last(view) != 8 || last(rel) != 9 {
		t.Fatalf("view has %d rows ending in %d, table %d ending in %d; want 6 ending in 8 and 6 ending in 9",
			view.Len(), last(view), rel.Len(), last(rel))
	}
}
