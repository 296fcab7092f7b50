// Package bag implements the deterministic bag-relational substrate: an
// in-memory N-relation (multiset) engine executing RA_agg plans. It plays
// the role of the conventional DBMS the paper's middleware runs on top of
// (the paper used Postgres; this is the in-memory stand-in) and is also used
// directly to evaluate queries over individual possible worlds.
package bag

import (
	"fmt"
	"sort"
	"strings"

	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// Relation is a bag (N-relation): tuples with positive multiplicities.
// Tuples need not be distinct; Merge normalizes.
type Relation struct {
	Schema schema.Schema
	Tuples []types.Tuple
	Counts []int64
}

// New creates an empty relation with the given schema.
func New(s schema.Schema) *Relation {
	return &Relation{Schema: s}
}

// NewFromRows builds a relation from rows, each with multiplicity 1.
func NewFromRows(s schema.Schema, rows []types.Tuple) *Relation {
	r := New(s)
	for _, t := range rows {
		r.Add(t, 1)
	}
	return r
}

// Add appends a tuple with the given multiplicity. Non-positive
// multiplicities are dropped (0_K tuples are not in the relation).
func (r *Relation) Add(t types.Tuple, count int64) {
	if count <= 0 {
		return
	}
	r.Tuples = append(r.Tuples, t)
	r.Counts = append(r.Counts, count)
}

// Len returns the number of stored rows (distinct after Merge).
func (r *Relation) Len() int { return len(r.Tuples) }

// Size returns the total multiplicity.
func (r *Relation) Size() int64 {
	var n int64
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// Count returns the multiplicity of t (summing duplicates).
func (r *Relation) Count(t types.Tuple) int64 {
	key := t.Key()
	var n int64
	for i, u := range r.Tuples {
		if u.Key() == key {
			n += r.Counts[i]
		}
	}
	return n
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	out := New(r.Schema)
	out.Tuples = make([]types.Tuple, len(r.Tuples))
	out.Counts = make([]int64, len(r.Counts))
	for i, t := range r.Tuples {
		out.Tuples[i] = t.Clone()
	}
	copy(out.Counts, r.Counts)
	return out
}

// Merge combines duplicate tuples, summing multiplicities, and returns the
// receiver for chaining. Order of first occurrence is preserved.
func (r *Relation) Merge() *Relation {
	if len(r.Tuples) == 0 {
		return r
	}
	idx := make(map[string]int, len(r.Tuples))
	outT := r.Tuples[:0]
	outC := r.Counts[:0]
	for i, t := range r.Tuples {
		k := t.Key()
		if j, ok := idx[k]; ok {
			outC[j] += r.Counts[i]
			continue
		}
		idx[k] = len(outT)
		outT = append(outT, t)
		outC = append(outC, r.Counts[i])
	}
	r.Tuples = outT
	r.Counts = outC
	return r
}

// Sort orders rows lexicographically in place (presentation and stable
// comparison), keeping counts aligned with their tuples.
func (r *Relation) Sort() *Relation {
	sort.Stable(sortPairs{r})
	return r
}

// sortPairs sorts tuples and counts together.
type sortPairs struct{ r *Relation }

func (s sortPairs) Len() int { return len(s.r.Tuples) }
func (s sortPairs) Less(i, j int) bool {
	c := s.r.Tuples[i].Compare(s.r.Tuples[j])
	if c != 0 {
		return c < 0
	}
	return s.r.Counts[i] < s.r.Counts[j]
}
func (s sortPairs) Swap(i, j int) {
	s.r.Tuples[i], s.r.Tuples[j] = s.r.Tuples[j], s.r.Tuples[i]
	s.r.Counts[i], s.r.Counts[j] = s.r.Counts[j], s.r.Counts[i]
}

// Sorted returns a sorted copy with duplicates merged, for comparisons.
func (r *Relation) Sorted() *Relation {
	out := r.Clone().Merge()
	sort.Sort(sortPairs{out})
	return out
}

// Equal reports bag equality (same tuples with same multiplicities).
func (r *Relation) Equal(o *Relation) bool {
	a, b := r.Sorted(), o.Sorted()
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	for i := range a.Tuples {
		if !a.Tuples[i].Equal(b.Tuples[i]) || a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// String renders the relation as a small table.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.Schema.String())
	sb.WriteByte('\n')
	for i, t := range r.Tuples {
		fmt.Fprintf(&sb, "%s x%d\n", t, r.Counts[i])
	}
	return sb.String()
}

// DB is a named collection of bag relations.
type DB map[string]*Relation

// Names returns the table names in sorted order, for deterministic
// diagnostics.
func (db DB) Names() []string { return schema.SortedNames(db) }

// LookupFold resolves a table name the way the planner does (exact, then
// case-insensitive), keeping execution consistent with compilation.
func (db DB) LookupFold(name string) (*Relation, bool) {
	return schema.LookupFold(db, name)
}

// Schemas returns a catalog view of the database.
func (db DB) Schemas() map[string]schema.Schema {
	out := make(map[string]schema.Schema, len(db))
	for n, r := range db {
		out[strings.ToLower(n)] = r.Schema
	}
	return out
}
