// Package encoding implements the paper's middleware path (Section 10):
// AU-DBs are encoded as ordinary bag relations with three columns per
// attribute plus three row-annotation columns (Enc / Dec, Section 10.1),
// and RA_agg queries over AU-DBs are rewritten into deterministic queries
// over the encoding (rewr(·), Section 10.2) executed by the deterministic
// engine. Theorem 8: Dec(Q_merge(Enc(D))) = Q(D); the tests cross-validate
// this path against the native engine of internal/core.
package encoding

import (
	"context"
	"fmt"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// Layout describes the column layout of an encoded AU-relation of arity n:
// columns [0,n) hold selected-guess values, [n,2n) lower bounds, [2n,3n)
// upper bounds, followed by row_lb, row_sg, row_ub.
type Layout struct{ N int }

// Column accessors.
func (l Layout) SG(i int) int { return i }
func (l Layout) Lo(i int) int { return l.N + i }
func (l Layout) Hi(i int) int { return 2*l.N + i }
func (l Layout) RowLo() int   { return 3 * l.N }
func (l Layout) RowSG() int   { return 3*l.N + 1 }
func (l Layout) RowHi() int   { return 3*l.N + 2 }
func (l Layout) Width() int   { return 3*l.N + 3 }

// EncSchema builds the encoded schema for an AU schema.
func EncSchema(s schema.Schema) schema.Schema {
	n := s.Arity()
	attrs := make([]string, 0, 3*n+3)
	for _, a := range s.Attrs {
		attrs = append(attrs, a)
	}
	for _, a := range s.Attrs {
		attrs = append(attrs, a+"_lb")
	}
	for _, a := range s.Attrs {
		attrs = append(attrs, a+"_ub")
	}
	attrs = append(attrs, "row_lb", "row_sg", "row_ub")
	return schema.Schema{Attrs: attrs}
}

// Enc encodes an AU-relation as a deterministic bag relation
// (Definition 29); every encoded row has multiplicity 1.
func Enc(r *core.Relation) *bag.Relation {
	// The background context is never cancelled, so encCtx cannot fail.
	out, _ := encCtx(context.Background(), r)
	return out
}

// encCtx is Enc with cooperative cancellation, polled per tuple.
func encCtx(ctx context.Context, r *core.Relation) (*bag.Relation, error) {
	l := Layout{N: r.Schema.Arity()}
	out := bag.New(EncSchema(r.Schema))
	p := ctxpoll.New(ctx)
	// EachTuple may reuse its scratch tuple between calls; every value is
	// copied into a fresh row before the callback returns, so nothing from
	// the scratch storage is retained.
	err := r.EachTuple(func(t core.Tuple) error {
		if err := p.Due(); err != nil {
			return err
		}
		row := make(types.Tuple, l.Width())
		for i, v := range t.Vals {
			row[l.SG(i)] = v.SG
			row[l.Lo(i)] = v.Lo
			row[l.Hi(i)] = v.Hi
		}
		row[l.RowLo()] = types.Int(t.M.Lo)
		row[l.RowSG()] = types.Int(t.M.SG)
		row[l.RowHi()] = types.Int(t.M.Hi)
		out.Add(row, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Dec decodes an encoded relation back into an AU-relation, merging
// value-equivalent rows and dropping rows whose upper multiplicity is zero.
func Dec(r *bag.Relation, auSchema schema.Schema) (*core.Relation, error) {
	l := Layout{N: auSchema.Arity()}
	if r.Schema.Arity() != l.Width() {
		return nil, fmt.Errorf("encoding: expected %d columns for %s, got %d",
			l.Width(), auSchema, r.Schema.Arity())
	}
	out := core.New(auSchema)
	for idx, row := range r.Tuples {
		mult := r.Counts[idx]
		vals := make(rangeval.Tuple, l.N)
		for i := 0; i < l.N; i++ {
			vals[i] = rangeval.New(row[l.Lo(i)], row[l.SG(i)], row[l.Hi(i)])
		}
		m := core.Mult{
			Lo: row[l.RowLo()].AsInt() * mult,
			SG: row[l.RowSG()].AsInt() * mult,
			Hi: row[l.RowHi()].AsInt() * mult,
		}
		if m.Lo < 0 {
			m.Lo = 0
		}
		if m.SG < m.Lo {
			m.SG = m.Lo
		}
		if m.Hi < m.SG {
			m.Hi = m.SG
		}
		if m.Hi > 0 {
			out.Add(core.Tuple{Vals: vals, M: m})
		}
	}
	// MergeCtx, not Merge: an SG sum that overflows is an error to return.
	return out.MergeCtx(context.Background())
}

// EncodeDB encodes every relation of an AU-database.
func EncodeDB(db core.DB) bag.DB {
	out, _ := EncodeDBContext(context.Background(), db)
	return out
}

// EncodeDBContext is EncodeDB with cooperative cancellation: the
// per-tuple encoding loops observe ctx, so cancelling a middleware query
// aborts promptly even during the O(database) encode phase.
func EncodeDBContext(ctx context.Context, db core.DB) (bag.DB, error) {
	out := bag.DB{}
	for n, r := range db {
		enc, err := encCtx(ctx, r)
		if err != nil {
			return nil, err
		}
		out[n] = enc
	}
	return out, nil
}
