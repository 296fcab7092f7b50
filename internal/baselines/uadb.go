// Package baselines reimplements the query-processing strategies of the
// systems the paper compares against (Section 12): UA-DBs, MCDB-style
// sampling, Libkin-style certain-answer under-approximation, MayBMS-style
// possible-answer computation, Trio-style aggregate bounds, and symbolic
// aggregate encodings (Symb). Each reimplementation preserves the
// asymptotic behaviour of the original system's strategy on the shared
// deterministic substrate (the paper ran the original systems; these are
// in-repository stand-ins).
package baselines

import (
	"context"
	"fmt"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/worlds"
)

// UADB is an uncertainty-annotated database (Feng et al. 2019, reviewed in
// Section 3.3): a pair of an under-approximation of the certain tuples and
// a selected-guess world. Queries from RA+ evaluate component-wise in the
// product semiring K².
type UADB struct {
	Lower bag.DB // under-approximation of certain tuples
	SG    bag.DB // selected-guess world
}

// UADBFromX builds a UA-DB from an x-database: the SG world picks best
// alternatives; the lower bound keeps only tuples from certain,
// single-alternative blocks (tuples with any uncertainty are marked
// uncertain, as in the paper's PDBench setup).
func UADBFromX(db worlds.XDB) *UADB {
	out := &UADB{Lower: bag.DB{}, SG: bag.DB{}}
	for name, rel := range db {
		lower := bag.New(rel.Schema)
		for i := range rel.Tuples {
			blk := &rel.Tuples[i]
			if len(blk.Alts) == 1 && !blk.IsOptional() {
				lower.Add(blk.Alts[0], 1)
			}
		}
		out.Lower[name] = lower.Merge()
		out.SG[name] = rel.SGW()
	}
	return out
}

// UADBResult pairs the two component results.
type UADBResult struct {
	Lower *bag.Relation
	SG    *bag.Relation
}

// ExecUADB evaluates an RA+ query over both components. Set difference and
// aggregation are outside the UA-DB query class; aggregation is evaluated
// per component for benchmark parity (its certain side is generally empty,
// matching the paper's observation that UA-DB aggregates return no certain
// answers).
func ExecUADB(ctx context.Context, n ra.Node, db *UADB) (*UADBResult, error) {
	if containsDiff(n) {
		return nil, fmt.Errorf("baselines: UA-DBs do not support set difference")
	}
	low, err := bag.Exec(ctx, n, db.Lower)
	if err != nil {
		return nil, err
	}
	sg, err := bag.Exec(ctx, n, db.SG)
	if err != nil {
		return nil, err
	}
	// The certain under-approximation of a non-monotone aggregate is
	// empty; intersect grouped results defensively: keep lower tuples
	// only when they also appear in the SG world with the same values.
	if containsAgg(n) {
		filtered := bag.New(low.Schema)
		for i, t := range low.Tuples {
			if sg.Count(t) > 0 {
				filtered.Add(t, minInt64(low.Counts[i], sg.Count(t)))
			}
		}
		low = filtered
	}
	return &UADBResult{Lower: low, SG: sg}, nil
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func containsDiff(n ra.Node) bool {
	if _, ok := n.(*ra.Diff); ok {
		return true
	}
	for _, c := range n.Children() {
		if containsDiff(c) {
			return true
		}
	}
	return false
}

func containsAgg(n ra.Node) bool {
	if _, ok := n.(*ra.Agg); ok {
		return true
	}
	for _, c := range n.Children() {
		if containsAgg(c) {
			return true
		}
	}
	return false
}

// LibkinDB is the labeled-null under-approximation of certain answers
// (Guagliardo & Libkin, Section 12's "Libkin" baseline): uncertain cells
// become nulls, null comparisons never hold, so every produced tuple is
// certain. (Our simplification drops labeled-null unification — two
// occurrences of the same unknown never compare equal — which keeps the
// result a sound under-approximation with the same evaluation cost.)
func LibkinDB(db worlds.XDB) bag.DB {
	out := bag.DB{}
	for name, rel := range db {
		r := bag.New(rel.Schema)
		for i := range rel.Tuples {
			blk := &rel.Tuples[i]
			if blk.IsOptional() {
				continue // possibly-absent tuples are never certain
			}
			row := make(types.Tuple, rel.Schema.Arity())
			for c := 0; c < rel.Schema.Arity(); c++ {
				v := blk.Alts[0][c]
				certain := true
				for _, a := range blk.Alts[1:] {
					if types.Compare(a[c], v) != 0 {
						certain = false
						break
					}
				}
				if certain {
					row[c] = v
				} else {
					row[c] = types.Null()
				}
			}
			r.Add(row, 1)
		}
		out[name] = r.Merge()
	}
	return out
}

// ExecLibkin evaluates the query over the null-coded database; the result
// under-approximates the certain answers (rows containing nulls stand for
// tuples whose values are not certain).
func ExecLibkin(ctx context.Context, n ra.Node, db bag.DB) (*bag.Relation, error) {
	return bag.Exec(ctx, n, db)
}
