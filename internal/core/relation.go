package core

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

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
// A relation holds its rows in exactly one of two layouts: the dense
// Tuples slice, built row by row by kernels and by callers filling a
// table before registering it, or the columnar layout of sparse.go, which
// every registered table, COPY load and decoded result is stored in.
// Code that reads Tuples directly must first obtain a dense view via
// Dense()/DenseRange() or iterate with EachTuple; the accessors on
// *Relation (Len, IsSparse, ...) work on either layout.
//
// A columnar relation is append-only: Add appends through its builder
// and never rewrites a row, and View pins the rows appended so far. So a
// registered table may take rows while queries run over the views their
// snapshots pinned.
type Relation struct {
	Schema schema.Schema
	Tuples []Tuple

	// sp is the header of a read-only columnar relation (a view), fixed
	// when the relation is made; nil otherwise.
	sp *sparseRows
	// b is the builder of a columnar relation that takes rows in place
	// (Compact, Finish, or a view's first Add). Once it is set, the rows
	// are read through the pinned view and sp is unused.
	b atomic.Pointer[RelationBuilder]
	// mu serializes Add, compaction and pinning, and guards view: the
	// pinned header of b's rows, nil from an append until View rebuilds
	// it.
	mu   sync.Mutex
	view *Relation
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
// A dense relation appends to Tuples. A columnar relation appends through
// its builder and stays columnar: a flat column takes triples at its first
// uncertain cell, and views pinned earlier keep their rows. A view
// appends to a copy of its columns, so it never writes into the storage
// it shares. A columnar append panics on a row whose length differs from
// the schema's.
func (r *Relation) Add(t Tuple) {
	if t.M.Hi <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.b.Load()
	if b == nil && r.sp != nil {
		b = NewRelationBuilder(r.Schema, r.sp.n+1)
		_ = r.EachTuple(func(t Tuple) error {
			b.Add(t)
			return nil
		})
		r.b.Store(b)
	}
	if b == nil {
		r.Tuples = append(r.Tuples, t)
		return
	}
	b.Add(t)
	r.view = nil
}

// Len returns the number of stored AU-tuples.
func (r *Relation) Len() int {
	if sp := r.header(); sp != nil {
		return sp.n
	}
	return len(r.Tuples)
}

// PossibleSize returns the total upper-bound multiplicity, the measure of
// over-approximation size reported in Figure 14b.
func (r *Relation) PossibleSize() int64 {
	var n int64
	_ = r.EachTuple(func(t Tuple) error {
		n += t.M.Hi
		return nil
	})
	return n
}

// CertainSize returns the total lower-bound multiplicity.
func (r *Relation) CertainSize() int64 {
	var n int64
	_ = r.EachTuple(func(t Tuple) error {
		n += t.M.Lo
		return nil
	})
	return n
}

// Clone returns a deep copy (dense, regardless of r's representation).
func (r *Relation) Clone() *Relation {
	if r.header() != nil {
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
	if r.header() != nil {
		return r.Dense()
	}
	out := New(r.Schema)
	out.Tuples = append([]Tuple(nil), r.Tuples...)
	return out
}

// Merge combines value-equivalent tuples, summing annotations. Tuples are
// value-equivalent when every attribute's lb, sg and ub compare equal
// (types.Compare), not when they are stored alike: [3/3/3] and
// [3.0/3.0/3.0] merge, and the first occurrence keeps its values and its
// position. The relational encoding requires merged relations (Section
// 10.2, "merge annotations"). An SG multiplicity sum that leaves int64 is
// an error: MergeCtx returns it as an *types.ErrOverflow, and Merge, which
// has no error to return, panics with it. So Merge is only for inputs
// whose sums cannot overflow (tests, baselines, 0/1 block annotations);
// code that merges user multiplicities calls MergeCtx.
func (r *Relation) Merge() *Relation {
	out, err := r.mergePoll(ctxpoll.New(context.Background()))
	if err != nil {
		panic(err)
	}
	return out
}

// MergeCtx is Merge with cooperative cancellation, polled per tuple: the
// O(result) merge of a large output aborts promptly with ctx.Err().
func (r *Relation) MergeCtx(ctx context.Context) (*Relation, error) {
	return r.mergePoll(ctxpoll.New(ctx))
}

// mergeIndexStart is the key count at which mergePoll's index is resized
// for the whole input.
const mergeIndexStart = 1024

// mergePoll merges in place. Each row's key is written into one reused
// buffer and probed as idx[string(key)], which does not allocate; a key
// string is made only for a row that is kept.
func (r *Relation) mergePoll(p *ctxpoll.Poll) (*Relation, error) {
	// Merge mutates in place, so it only runs on owned relations; owned
	// relations are dense (ShallowClone densifies), but densify
	// defensively so a stray sparse input cannot corrupt the merge.
	r.densifyInPlace()
	if len(r.Tuples) == 0 {
		return r, nil
	}
	// The index starts small, so a merge of many duplicates allocates per
	// kept row only. Once it holds mergeIndexStart keys, it is rebuilt
	// sized for every row, which spares the rehashing of growth.
	idx := make(map[string]int, min(len(r.Tuples), mergeIndexStart))
	out := r.Tuples[:0]
	var key []byte
	for _, t := range r.Tuples {
		if err := p.Due(); err != nil {
			return nil, err
		}
		key = t.Vals.AppendKey(key[:0])
		if j, ok := idx[string(key)]; ok {
			m, err := out[j].M.AddChecked(t.M)
			if err != nil {
				return nil, err
			}
			out[j].M = m
			continue
		}
		idx[string(key)] = len(out)
		out = append(out, t)
		if len(idx) == mergeIndexStart && len(r.Tuples) > mergeIndexStart {
			big := make(map[string]int, len(r.Tuples))
			maps.Copy(big, idx)
			idx = big
		}
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
// sum. An SG sum that leaves int64 is an *types.ErrOverflow.
func (r *Relation) SGCombine() (*Relation, error) {
	out := New(r.Schema)
	idx := make(map[string]int, r.Len())
	err := r.EachTuple(func(t Tuple) error {
		k := t.Vals.SGKey()
		if j, ok := idx[k]; ok {
			o := &out.Tuples[j]
			for a := range o.Vals {
				o.Vals[a].Widen(&t.Vals[a])
			}
			m, err := o.M.AddChecked(t.M)
			o.M = m
			return err
		}
		idx[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, t.Clone())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
