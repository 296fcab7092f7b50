// Package phys is the physical execution layer between the logical plans
// of internal/ra (optimized by internal/opt) and the operator kernels of
// internal/core: it lowers a plan into a tree of pull-based batch
// iterators and executes it.
//
// Scan→Select→Project→Limit chains stream in fixed-size batches
// (vec.Batch) without materializing any intermediate relation and without
// cloning. Over a sparse base table the batches are columnar:
// struct-of-arrays views aliasing the stored rangeval.Col columns (flat
// slices where the source column is certain) with zero densification,
// filtered by column-at-a-time predicate programs (expr.CompileVec) that
// mark survivors in a selection vector instead of copying them, and
// projected by column permutation and vectorized per-column evaluation.
// Over a dense table batches are row batches of core.Tuple and take the
// per-row kernels: selection rewrites only the multiplicity triple, scans
// emit views into base-table storage, and buffers are reused batch to
// batch. LIMIT keeps O(n) state instead of merging the whole input, and
// LIMIT over ORDER BY fuses into a bounded top-k heap instead of a full
// sort. With Workers > 1, streaming chains over a scan are partitioned
// into contiguous ranges that run on worker goroutines and re-merge in
// partition order (the exchange operator), so parallelism never changes
// results.
//
// Operators whose semantics need the whole input — the hybrid overlap
// join's build sides, aggregation group-boxing, Diff, Distinct, and full
// ORDER BY — are pipeline breakers: they drain their inputs and run the
// exact internal/core kernels the reference executor runs, so every result
// is bit-identical to core.Exec (property-tested across engines, worker
// counts and batch sizes). Merge points are the one subtlety: the
// reference executor merges value-equivalent tuples at Project and Union.
// With compression off, every operator is insensitive to merge granularity
// and the pipeline streams through them, restoring the canonical form at
// the final merge; with JoinCompression/AggCompression on, equi-depth
// bucket boundaries make merge granularity observable, so the compiler
// demotes Project and Union to breakers and stays exact.
package phys

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/opt"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/schema"
)

// DefaultBatchSize is the pipeline batch size when Options.BatchSize is 0.
const DefaultBatchSize = 1024

// minPartitionRows is the minimum scan rows per partition before a
// streaming chain is parallelized (below it, goroutine and channel
// overhead dominates — the streaming analog of core's chunking minimum).
const minPartitionRows = 1024

// Options configure compilation and execution of a physical plan.
type Options struct {
	// BatchSize is the number of tuples per pipeline batch; 0 means
	// DefaultBatchSize. Results are identical for every batch size.
	BatchSize int
	// Exec carries the operator options of the core kernels: worker
	// count, compression, naive join.
	Exec core.Options
	// Analyze instruments every operator with rows/batches/time counters
	// (EXPLAIN ANALYZE); retrieve them with Plan.Stats after Execute.
	Analyze bool
	// Est carries the cost model's per-operator annotations for THIS plan
	// (opt.CostOptimize keys them by node identity). The lowering uses
	// them to pick hash-join build sides, pre-size hash tables,
	// aggregation maps and drain buffers, and size exchange partitions
	// from estimated rather than actual scan counts; estimates never
	// affect results. Nil disables stats-driven lowering.
	Est *opt.Annotations
}

// Plan is a compiled physical plan. A Plan executes once: compile per
// execution (compilation is a cheap tree lowering).
type Plan struct {
	root     iter
	sch      schema.Schema
	opt      Options
	stats    *metrics.ExecStats
	executed bool
}

// Compile lowers a logical plan into a physical iterator tree over the
// given database snapshot.
func Compile(n ra.Node, db core.DB, opt Options) (*Plan, error) {
	if ra.IsNil(n) {
		return nil, fmt.Errorf("phys: nil plan")
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = DefaultBatchSize
	}
	workers := opt.Exec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	c := &compiler{
		db:      db,
		cat:     ra.CatalogMap(db.Schemas()),
		opt:     opt,
		workers: workers,
	}
	sch, err := ra.InferSchema(n, c.cat)
	if err != nil {
		return nil, err
	}
	root, err := c.lower(n)
	if err != nil {
		return nil, err
	}
	p := &Plan{root: root, sch: sch, opt: opt}
	if opt.Analyze {
		p.stats = &metrics.ExecStats{BatchSize: opt.BatchSize}
		if si, ok := root.(*statIter); ok {
			p.stats.Root = si.st
		}
	}
	return p, nil
}

// Execute opens the iterator tree, drains the root into a fresh relation
// and merges value-equivalent tuples — the same canonical form core.Exec
// returns. Cancelling ctx aborts execution promptly with ctx.Err().
func (p *Plan) Execute(ctx context.Context) (*core.Relation, error) {
	if p.executed {
		return nil, fmt.Errorf("phys: plan already executed (compile one plan per execution)")
	}
	p.executed = true
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	out, err := p.drainRoot(ctx)
	if err != nil {
		return nil, err
	}
	res, err := out.MergeCtx(ctx)
	if err != nil {
		return nil, err
	}
	if p.stats != nil {
		p.stats.Total = time.Since(start)
	}
	return res, nil
}

// drainRoot materializes the root iterator's output. A breaker root
// already owns a materialized relation, so take it directly instead of
// re-copying it batch by batch (the final merge still runs in place). The
// instrumented path keeps the generic drain so the root's rows/batches
// counters stay meaningful.
func (p *Plan) drainRoot(ctx context.Context) (*core.Relation, error) {
	if k, ok := p.root.(breakerRoot); ok && p.stats == nil {
		if err := k.Open(ctx); err != nil {
			k.Close()
			return nil, err
		}
		rel := k.output()
		if err := k.Close(); err != nil {
			return nil, err
		}
		return rel, nil
	}
	return drain(ctx, p.root)
}

// breakerRoot is a breaker (kernelIter, aggIter): once open, it owns its
// materialized output.
type breakerRoot interface {
	iter
	output() *core.Relation
}

// Stats returns the EXPLAIN ANALYZE counters (nil unless compiled with
// Options.Analyze; complete after Execute returns).
func (p *Plan) Stats() *metrics.ExecStats { return p.stats }

// Exec is the convenience one-shot: compile and execute.
func Exec(ctx context.Context, n ra.Node, db core.DB, opt Options) (*core.Relation, error) {
	p, err := Compile(n, db, opt)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx)
}

// ------------------------------------------------------------ lowering --

type compiler struct {
	db      core.DB
	cat     ra.Catalog
	opt     Options
	workers int
}

// projectStreams reports whether Project/Union may stream: they are the
// reference executor's merge points, and compression (equi-depth bucket
// boundaries count tuples) makes merge granularity observable.
func (c *compiler) projectStreams() bool {
	return !c.opt.Exec.Compressed()
}

// estRows returns the cost model's row estimate for a node of this plan.
func (c *compiler) estRows(n ra.Node) (int64, bool) {
	if c.opt.Est == nil {
		return 0, false
	}
	return c.opt.Est.EstRows(n)
}

// maxPrealloc caps estimate-driven pre-allocations (tuples or map
// buckets): the estimator deliberately over-estimates uncertain
// predicates, so a hint must never reserve memory the input cannot
// fill. Pre-sizing saturates quickly — beyond 64Ki entries append
// doubling costs only a handful of reallocations — so the cap is kept
// small (a few MB of Tuple headers at worst). Growth beyond it falls
// back to append/rehash.
const maxPrealloc = 1 << 16

// sizeHint converts a node's row estimate into a bounded allocation hint
// (0 when no estimate is available).
func (c *compiler) sizeHint(n ra.Node) int {
	e, ok := c.estRows(n)
	if !ok || e < 0 {
		return 0
	}
	if e > maxPrealloc {
		return maxPrealloc
	}
	return int(e)
}

// lower builds the iterator for n. Streaming chains are parallelized by
// lowerExchange at the topmost chain node, which instantiates the whole
// chain per partition (buildChain) — the nodes below it are never lowered
// individually, so a chain is partitioned at most once (an inner node's
// own lowerExchange attempt can only arise when the top attempt failed,
// and then fails for the same reason).
func (c *compiler) lower(n ra.Node) (iter, error) {
	if ra.IsNil(n) {
		return nil, fmt.Errorf("phys: nil plan node")
	}
	switch t := n.(type) {
	case *ra.Scan:
		rel, ok := c.db.LookupFold(t.Table)
		if !ok {
			return nil, schema.UnknownTable("phys", t.Table, c.db.Names())
		}
		it := newScanIter(rel, 0, rel.Len(), c.opt.BatchSize)
		return c.wrap(it, n, t.String(), "stream"), nil

	case *ra.Select:
		if ex, ok, err := c.lowerExchange(n); err != nil || ok {
			return ex, err
		}
		child, err := c.lower(t.Child)
		if err != nil {
			return nil, err
		}
		it := &selectIter{child: child, pred: t.Pred, sch: child.Schema()}
		return c.wrap(it, n, t.String(), "stream", child), nil

	case *ra.Project:
		if !c.projectStreams() {
			return c.breaker(n, "", func(ctx context.Context, ins []*core.Relation) (*core.Relation, error) {
				return core.ApplyProject(ctx, ins[0], t.Cols, c.opt.Exec)
			}, t.Child)
		}
		if ex, ok, err := c.lowerExchange(n); err != nil || ok {
			return ex, err
		}
		child, err := c.lower(t.Child)
		if err != nil {
			return nil, err
		}
		sch, err := ra.InferSchema(t, c.cat)
		if err != nil {
			return nil, err
		}
		it := &projectIter{child: child, cols: t.Cols, sch: sch}
		return c.wrap(it, n, t.String(), "stream", child), nil

	case *ra.Union:
		if !c.projectStreams() {
			return c.breaker(n, "", func(ctx context.Context, ins []*core.Relation) (*core.Relation, error) {
				return core.UnionRelations(ctx, ins[0], ins[1])
			}, t.Left, t.Right)
		}
		// InferSchema validated the arity match at Compile.
		left, err := c.lower(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.lower(t.Right)
		if err != nil {
			return nil, err
		}
		it := &unionIter{left: left, right: right, sch: left.Schema()}
		return c.wrap(it, n, t.String(), "stream", left, right), nil

	case *ra.Join:
		// Stats-driven lowering: build the hash index over the estimated
		// smaller input (the index itself is sized from the materialized
		// build side, which is exact by then). The per-operator options
		// copy never leaks into other operators.
		o := c.opt.Exec
		if c.opt.Est != nil {
			o.JoinBuildLeft = c.opt.Est.BuildLeft(t)
		}
		return c.breaker(n, "join", func(ctx context.Context, ins []*core.Relation) (*core.Relation, error) {
			return core.JoinRelations(ctx, ins[0], ins[1], t.Cond, o)
		}, t.Left, t.Right)

	case *ra.Diff:
		return c.breaker(n, "", func(ctx context.Context, ins []*core.Relation) (*core.Relation, error) {
			return core.DiffRelations(ctx, ins[0], ins[1])
		}, t.Left, t.Right)

	case *ra.Distinct:
		return c.breaker(n, "", func(ctx context.Context, ins []*core.Relation) (*core.Relation, error) {
			return core.DistinctRelation(ctx, ins[0], c.opt.Exec)
		}, t.Child)

	case *ra.Agg:
		outSchema, err := ra.InferSchema(t, c.cat)
		if err != nil {
			return nil, err
		}
		// The estimated group count pre-sizes the aggregation maps.
		o := c.opt.Exec
		o.SizeHint = c.sizeHint(n)
		child, err := c.lower(t.Child)
		if err != nil {
			return nil, err
		}
		it := &aggIter{
			kernelIter: kernelIter{
				children: []iter{child}, labels: []string{"aggregation input"}, hints: []int{c.sizeHint(t.Child)},
				sch: outSchema, batch: c.opt.BatchSize,
			},
			agg: func(ctx context.Context, in *core.AggInput) (*core.Relation, error) {
				return core.AggInputs(ctx, in, t.GroupBy, t.Aggs, outSchema, o)
			},
		}
		return c.wrap(it, n, n.String(), "materialize", child), nil

	case *ra.OrderBy:
		// A full sort is always a breaker; the drained input is owned, so
		// the kernel sorts it in place.
		return c.breaker(n, "", func(ctx context.Context, ins []*core.Relation) (*core.Relation, error) {
			return core.ApplyOrderBy(ctx, ins[0], t.Keys, t.Desc)
		}, t.Child)

	case *ra.Limit:
		if ob, ok := t.Child.(*ra.OrderBy); ok {
			child, err := c.lower(ob.Child)
			if err != nil {
				return nil, err
			}
			it := &topkIter{
				child: child, keys: ob.Keys, desc: ob.Desc, n: t.N,
				sch: child.Schema(), batch: c.opt.BatchSize,
			}
			label := fmt.Sprintf("%s over %s", t.String(), ob.String())
			return c.wrap(it, n, label, "top-k", child), nil
		}
		child, err := c.lower(t.Child)
		if err != nil {
			return nil, err
		}
		it := &limitIter{child: child, n: t.N, sch: child.Schema(), batch: c.opt.BatchSize}
		return c.wrap(it, n, t.String(), "stream", child), nil
	}
	return nil, fmt.Errorf("phys: unknown node %T", n)
}

// breaker lowers n as a kernel-backed pipeline breaker over its children.
// label (optional) mirrors the reference executor's input-error context.
// Each child drain is pre-sized from the child's estimated cardinality.
func (c *compiler) breaker(n ra.Node, label string, run func(context.Context, []*core.Relation) (*core.Relation, error), children ...ra.Node) (iter, error) {
	its := make([]iter, len(children))
	labels := make([]string, len(children))
	hints := make([]int, len(children))
	for i, ch := range children {
		it, err := c.lower(ch)
		if err != nil {
			return nil, err
		}
		its[i] = it
		hints[i] = c.sizeHint(ch)
		switch {
		case label == "join" && i == 0:
			labels[i] = "join left input"
		case label == "join" && i == 1:
			labels[i] = "join right input"
		case label != "join":
			labels[i] = label
		}
	}
	sch, err := ra.InferSchema(n, c.cat)
	if err != nil {
		return nil, err
	}
	it := &kernelIter{children: its, labels: labels, hints: hints, sch: sch, batch: c.opt.BatchSize, run: run}
	return c.wrap(it, n, n.String(), "materialize", its...), nil
}

// lowerExchange parallelizes a streaming Select/Project chain over a scan:
// when the whole subtree streams down to one Scan and the table is large
// enough to split across workers, one copy of the chain is built per
// contiguous scan range and an exchange re-merges them in partition order.
// With cost-based annotations, the partition COUNT is sized from the
// planner's estimated scan rows instead of the actual count, so the
// parallelism decision is part of the (explainable, reproducible) plan
// rather than of the data the snapshot happens to hold; the spans
// themselves always cover the actual stored tuples.
func (c *compiler) lowerExchange(n ra.Node) (iter, bool, error) {
	if c.workers <= 1 {
		return nil, false, nil
	}
	scan := c.chainScan(n)
	if scan == nil {
		return nil, false, nil
	}
	rel, ok := c.db.LookupFold(scan.Table)
	if !ok {
		return nil, false, schema.UnknownTable("phys", scan.Table, c.db.Names())
	}
	sized := rel.Len()
	if e, ok := c.estRows(scan); ok && e >= 0 && e <= int64(1<<40) {
		sized = int(e)
	}
	nPart := len(core.ChunkSpans(sized, c.workers, minPartitionRows))
	if nPart < 2 {
		return nil, false, nil
	}
	spans := core.ChunkSpans(rel.Len(), nPart, 1)
	if len(spans) < 2 {
		return nil, false, nil
	}
	parts := make([]iter, len(spans))
	for i, s := range spans {
		it, err := c.buildChain(n, rel, s.Lo, s.Hi)
		if err != nil {
			return nil, false, err
		}
		parts[i] = it
	}
	sch, err := ra.InferSchema(n, c.cat)
	if err != nil {
		return nil, false, err
	}
	it := &exchangeIter{parts: parts, sch: sch}
	return c.wrap(it, n, n.String(), fmt.Sprintf("exchange(%d)", len(parts))), true, nil
}

// chainScan returns the Scan leaf when every node from n down is a
// streamable Select/Project, and nil otherwise.
func (c *compiler) chainScan(n ra.Node) *ra.Scan {
	for {
		switch t := n.(type) {
		case *ra.Scan:
			return t
		case *ra.Select:
			n = t.Child
		case *ra.Project:
			if !c.projectStreams() {
				return nil
			}
			n = t.Child
		default:
			return nil
		}
	}
}

// buildChain instantiates the streaming chain over one scan partition.
func (c *compiler) buildChain(n ra.Node, rel *core.Relation, lo, hi int) (iter, error) {
	switch t := n.(type) {
	case *ra.Scan:
		return newScanIter(rel, lo, hi, c.opt.BatchSize), nil
	case *ra.Select:
		child, err := c.buildChain(t.Child, rel, lo, hi)
		if err != nil {
			return nil, err
		}
		return &selectIter{child: child, pred: t.Pred, sch: child.Schema()}, nil
	case *ra.Project:
		child, err := c.buildChain(t.Child, rel, lo, hi)
		if err != nil {
			return nil, err
		}
		sch, err := ra.InferSchema(t, c.cat)
		if err != nil {
			return nil, err
		}
		return &projectIter{child: child, cols: t.Cols, sch: sch}, nil
	}
	return nil, fmt.Errorf("phys: non-streaming node %T in scan chain", n)
}

// wrap instruments an iterator when Analyze is on, linking the children's
// counters into the stats tree and attaching the cost model's estimate
// for the lowered node so EXPLAIN ANALYZE shows est next to actual.
func (c *compiler) wrap(it iter, n ra.Node, op, strategy string, children ...iter) iter {
	if !c.opt.Analyze {
		return it
	}
	st := &metrics.OpStats{Op: op, Strategy: strategy}
	if e, ok := c.estRows(n); ok {
		st.EstRows, st.HasEst = e, true
	}
	for _, ch := range children {
		if si, ok := ch.(*statIter); ok {
			st.Children = append(st.Children, si.st)
		}
	}
	return &statIter{inner: it, st: st}
}
