package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// Tuple is one AU-DB tuple: range-annotated attribute values plus an N^AU
// multiplicity annotation.
type Tuple struct {
	Vals rangeval.Tuple
	M    Mult
}

// Clone returns a deep copy.
func (t Tuple) Clone() Tuple {
	return Tuple{Vals: t.Vals.Clone(), M: t.M}
}

// String renders the tuple with its annotation.
func (t Tuple) String() string {
	return t.Vals.String() + " " + t.M.String()
}

// Relation is an N^AU-relation (Definition 12): a finite support function
// from range-annotated tuples to multiplicity triples, stored as a slice.
// Tuples with zero annotations are never stored.
//
// A relation holds its rows in exactly one of two representations: the
// dense Tuples slice, or the columnar sparse form (sp, see sparse.go)
// that a Catalog compacts mostly-certain tables into. Code that reads
// Tuples directly must first obtain a dense view via Dense()/DenseRange()
// or iterate with EachTuple; the accessors on *Relation (Len, Repr,
// IsSparse, ...) work on either representation.
type Relation struct {
	Schema schema.Schema
	Tuples []Tuple

	// sp holds the columnar storage of a compacted relation; nil for
	// dense relations. Invariant: sp != nil implies Tuples == nil.
	sp *sparseRows
	// published is set by the relation's first catalog registration,
	// under that catalog's lock. From then on queries may be reading the
	// relation, so registration never compacts it again.
	published bool
	// successor is the relation that replaced this one in a catalog
	// (Catalog.ReplaceIf, Analyze's columnar rebuild), set under that
	// catalog's lock; nil while the relation is live. Add and Live follow
	// it, so a handle kept across the swap keeps reaching queries.
	successor *Relation
}

// New creates an empty AU-relation with the given schema.
func New(s schema.Schema) *Relation { return &Relation{Schema: s} }

// FromDeterministic lifts a deterministic bag relation into an AU-relation
// with certain attribute values and exact annotations (k,k,k).
func FromDeterministic(r *bag.Relation) *Relation {
	out := New(r.Schema)
	for i, t := range r.Tuples {
		c := r.Counts[i]
		out.Add(Tuple{Vals: rangeval.CertainTuple(t), M: Mult{c, c, c}})
	}
	return out
}

// Add appends a tuple unless its annotation is zero or invalid-by-zero.
// Adding to a columnar relation densifies it first: rows appended in
// place are stored dense until the next Analyze rebuilds the table
// columnar. Adding to a relation that a catalog replaced appends to its
// replacement (see Live), so the row reaches the registered table.
func (r *Relation) Add(t Tuple) {
	if t.M.Hi <= 0 {
		return
	}
	r = r.Live()
	r.densifyInPlace()
	r.Tuples = append(r.Tuples, t)
}

// Live returns the relation that currently stands for r: r itself, or,
// when a catalog replaced r with a rebuilt copy (Analyze), the latest
// replacement. A replaced relation keeps its rows for the snapshots that
// may still scan it but takes no new ones.
func (r *Relation) Live() *Relation {
	for r.successor != nil {
		r = r.successor
	}
	return r
}

// Len returns the number of stored AU-tuples.
func (r *Relation) Len() int {
	if r.sp != nil {
		return r.sp.n
	}
	return len(r.Tuples)
}

// PossibleSize returns the total upper-bound multiplicity, the measure of
// over-approximation size reported in Figure 14b.
func (r *Relation) PossibleSize() int64 {
	var n int64
	if r.sp != nil {
		for i := 0; i < r.sp.n; i++ {
			n += r.sp.multAt(i).Hi
		}
		return n
	}
	for _, t := range r.Tuples {
		n += t.M.Hi
	}
	return n
}

// CertainSize returns the total lower-bound multiplicity.
func (r *Relation) CertainSize() int64 {
	var n int64
	if r.sp != nil {
		for i := 0; i < r.sp.n; i++ {
			n += r.sp.multAt(i).Lo
		}
		return n
	}
	for _, t := range r.Tuples {
		n += t.M.Lo
	}
	return n
}

// Clone returns a deep copy (dense, regardless of r's representation).
func (r *Relation) Clone() *Relation {
	if r.sp != nil {
		// Dense materialization is already a deep copy: fresh Vals
		// slices over immutable values.
		return r.Dense()
	}
	out := New(r.Schema)
	out.Tuples = make([]Tuple, len(r.Tuples))
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	return out
}

// ShallowClone copies the Tuples slice — annotations are value-copied with
// the Tuple structs — without deep-copying attribute ranges. The clone owns
// its slice and annotations (it may be reordered, truncated and Merged),
// while attribute values still alias r's; every engine treats range values
// as immutable, so slice-level ownership is all the executors need. A
// sparse relation yields a fresh dense materialization, which owns
// everything.
func (r *Relation) ShallowClone() *Relation {
	if r.sp != nil {
		return r.Dense()
	}
	out := New(r.Schema)
	out.Tuples = append([]Tuple(nil), r.Tuples...)
	return out
}

// Merge combines value-equivalent tuples (identical [lb/sg/ub] on every
// attribute), summing annotations. The relational encoding requires merged
// relations (Section 10.2, "merge annotations").
func (r *Relation) Merge() *Relation {
	// The background context is never cancelled, so mergePoll cannot fail.
	out, _ := r.mergePoll(ctxpoll.New(context.Background()))
	return out
}

// MergeCtx is Merge with cooperative cancellation, polled per tuple: the
// O(result) merge of a large output aborts promptly with ctx.Err().
func (r *Relation) MergeCtx(ctx context.Context) (*Relation, error) {
	return r.mergePoll(ctxpoll.New(ctx))
}

func (r *Relation) mergePoll(p *ctxpoll.Poll) (*Relation, error) {
	// Merge mutates in place, so it only runs on owned relations; owned
	// relations are dense (ShallowClone densifies), but densify
	// defensively so a stray sparse input cannot corrupt the merge.
	r.densifyInPlace()
	if len(r.Tuples) == 0 {
		return r, nil
	}
	idx := make(map[string]int, len(r.Tuples))
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		if err := p.Due(); err != nil {
			return nil, err
		}
		k := t.Vals.Key()
		if j, ok := idx[k]; ok {
			out[j].M = out[j].M.Add(t.M)
			continue
		}
		idx[k] = len(out)
		out = append(out, t)
	}
	r.Tuples = out
	return r, nil
}

// SGW extracts the selected-guess world encoded by the relation
// (Definition 13): group tuples by their SG attribute values and sum the SG
// components of their annotations.
func (r *Relation) SGW() *bag.Relation {
	// The background context is never cancelled, so sgwCtx cannot fail.
	out, _ := r.sgwCtx(ctxpoll.New(context.Background()))
	return out
}

// sgwCtx is SGW with cooperative cancellation, polled per tuple.
func (r *Relation) sgwCtx(p *ctxpoll.Poll) (*bag.Relation, error) {
	out := bag.New(r.Schema)
	counts := map[string]int64{}
	reps := map[string]types.Tuple{}
	var order []string
	err := r.EachTuple(func(t Tuple) error {
		if err := p.Due(); err != nil {
			return err
		}
		sg := t.Vals.SG() // fresh tuple, safe past the scratch Vals
		k := sg.Key()
		if _, ok := counts[k]; !ok {
			order = append(order, k)
			reps[k] = sg
		}
		counts[k] += t.M.SG
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range order {
		if counts[k] > 0 {
			out.Add(reps[k], counts[k])
		}
	}
	return out, nil
}

// SGCombine implements the SG-combiner Ψ (Definition 21): tuples with the
// same selected-guess attribute values are merged into a single tuple whose
// attribute ranges are the minimum bounding box and whose annotation is the
// sum.
func (r *Relation) SGCombine() *Relation {
	out := New(r.Schema)
	idx := make(map[string]int, r.Len())
	_ = r.EachTuple(func(t Tuple) error {
		k := t.Vals.SGKey()
		if j, ok := idx[k]; ok {
			out.Tuples[j].Vals = out.Tuples[j].Vals.Union(t.Vals)
			out.Tuples[j].M = out.Tuples[j].M.Add(t.M)
			return nil
		}
		idx[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, t.Clone())
		return nil
	})
	return out
}

// Sort orders tuples by SG values then bounds, for stable output. Sorting
// reorders in place, so a sparse relation densifies first.
func (r *Relation) Sort() *Relation {
	r.densifyInPlace()
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i], r.Tuples[j]
		if c := a.Vals.SG().Compare(b.Vals.SG()); c != 0 {
			return c < 0
		}
		return a.Vals.Key() < b.Vals.Key()
	})
	return r
}

// String renders the relation as a table.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.Schema.String())
	sb.WriteByte('\n')
	_ = r.EachTuple(func(t Tuple) error {
		fmt.Fprintf(&sb, "%s\n", t)
		return nil
	})
	return sb.String()
}

// DB is a named collection of AU-relations.
type DB map[string]*Relation

// Schemas returns a catalog view.
func (db DB) Schemas() map[string]schema.Schema {
	out := make(map[string]schema.Schema, len(db))
	for n, r := range db {
		out[strings.ToLower(n)] = r.Schema
	}
	return out
}

// SGW extracts the selected-guess world of every relation.
func (db DB) SGW() bag.DB {
	out, _ := db.SGWContext(context.Background())
	return out
}

// SGWContext is SGW with cooperative cancellation, so the O(database)
// extraction phase of a selected-guess query aborts promptly.
func (db DB) SGWContext(ctx context.Context) (bag.DB, error) {
	out := bag.DB{}
	p := ctxpoll.New(ctx)
	for n, r := range db {
		sgw, err := r.sgwCtx(p)
		if err != nil {
			return nil, err
		}
		out[n] = sgw
	}
	return out, nil
}

// FromDeterministicDB lifts a whole deterministic database.
func FromDeterministicDB(db bag.DB) DB {
	out := DB{}
	for n, r := range db {
		out[n] = FromDeterministic(r)
	}
	return out
}
