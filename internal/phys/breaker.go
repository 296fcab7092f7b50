package phys

import (
	"context"
	"fmt"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/phys/vec"
	"github.com/audb/audb/internal/schema"
)

// kernelIter is a pipeline breaker: it drains its children into
// materialized relations at Open, runs one of internal/core's operator
// kernels — bit-identical to the reference executor by construction — and
// streams the kernel's output in batches. The children still stream into
// the drain, so a breaker materializes exactly one relation per input, not
// the whole subtree.
type kernelIter struct {
	children []iter
	// labels optionally wraps a child's drain error with the same context
	// the reference executor attaches (e.g. "join left input").
	labels []string
	// hints holds the planner's estimated rows per child (0 = none),
	// pre-sizing each drain's output slice.
	hints []int
	sch   schema.Schema
	batch int
	run   func(ctx context.Context, ins []*core.Relation) (*core.Relation, error)

	// rel is the kernel's materialized output (owned); Next streams its
	// tuples, and Plan.Execute takes it directly when the breaker is the
	// plan root.
	rel *core.Relation
	pos int
	out vec.Batch
}

func (k *kernelIter) Open(ctx context.Context) error {
	ins := make([]*core.Relation, len(k.children))
	for i, ch := range k.children {
		hint := 0
		if k.hints != nil {
			hint = k.hints[i]
		}
		rel, err := drainHint(ctx, ch, hint)
		if err != nil {
			if k.labels != nil && k.labels[i] != "" {
				return fmt.Errorf("phys: %s: %w", k.labels[i], err)
			}
			return err
		}
		ins[i] = rel
	}
	res, err := k.run(ctx, ins)
	if err != nil {
		return err
	}
	k.rel = res
	k.pos = 0
	return nil
}

// output returns the kernel's materialized output once Open succeeded.
func (k *kernelIter) output() *core.Relation { return k.rel }

func (k *kernelIter) Next() (*vec.Batch, error) {
	if k.rel == nil || k.pos >= len(k.rel.Tuples) {
		return nil, nil
	}
	end := k.pos + k.batch
	if end > len(k.rel.Tuples) {
		end = len(k.rel.Tuples)
	}
	k.out.SetRows(k.rel.Tuples[k.pos:end])
	k.pos = end
	return &k.out, nil
}

func (k *kernelIter) Close() error {
	// Children are opened and closed inside Open's drain; closing them
	// again must be safe per the iter contract.
	var err error
	for _, ch := range k.children {
		if cerr := ch.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

func (k *kernelIter) Schema() schema.Schema { return k.sch }

// drain opens the child, appends every batch into a fresh relation the
// caller owns (batch buffers are reused by producers; row batches copy the
// Tuple structs, columnar batches are gathered into fresh tuples), and
// closes the child.
func drain(ctx context.Context, it iter) (*core.Relation, error) {
	return drainHint(ctx, it, 0)
}

// drainHint is drain with the output slice pre-sized to the planner's
// estimate (already capped by the compiler; 0 means no estimate). An
// under-estimate just grows the slice as before.
func drainHint(ctx context.Context, it iter, hint int) (*core.Relation, error) {
	if err := it.Open(ctx); err != nil {
		it.Close()
		return nil, err
	}
	out := core.New(it.Schema())
	if hint > 0 {
		out.Tuples = make([]core.Tuple, 0, hint)
	}
	for {
		b, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		out.Tuples = b.AppendTuples(out.Tuples)
	}
	return out, it.Close()
}

// aggIter is the aggregation breaker: a kernelIter whose one child drains
// into a core.AggInput (drainAgg), not a relation, so the kernel reads
// columnar batches without a densify.
type aggIter struct {
	kernelIter
	agg func(ctx context.Context, in *core.AggInput) (*core.Relation, error)
}

func (a *aggIter) Open(ctx context.Context) error {
	in, err := drainAgg(ctx, a.children[0], a.hints[0])
	if err != nil {
		return fmt.Errorf("phys: %s: %w", a.labels[0], err)
	}
	res, err := a.agg(ctx, in)
	if err != nil {
		return err
	}
	a.rel, a.pos = res, 0
	return nil
}

// drainAgg is drainHint for the aggregation breaker: the batch layout
// decides how rows are kept. Row batches append their Tuple structs, as
// drainHint does; columnar batches keep their live rows as columns
// (core.AggInput.AppendColumns), so the kernel reads them without a
// densify.
func drainAgg(ctx context.Context, it iter, hint int) (*core.AggInput, error) {
	if err := it.Open(ctx); err != nil {
		it.Close()
		return nil, err
	}
	in := core.NewAggInput(hint)
	for {
		b, err := it.Next()
		if err != nil {
			it.Close()
			return nil, err
		}
		if b == nil {
			break
		}
		if b.Columnar {
			in.AppendColumns(b.Cols, b.MFlat, b.MDense, b.N, b.Sel)
		} else {
			in.AppendRows(b.Rows)
		}
	}
	return in, it.Close()
}
