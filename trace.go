package audb

import (
	"context"

	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/obs"
	"github.com/audb/audb/internal/opt"
	"github.com/audb/audb/internal/phys"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/sql"
)

// QueryTrace is the span tree for one traced execution: parse →
// optimize (one child span per effective rule, with the rule trace's
// timings) → cost-based planning → physical lowering → execution (one
// child span per physical operator, carrying the same rows/est/batches
// counters ExplainAnalyze reports). The traced query really runs;
// Result holds its answer.
type QueryTrace struct {
	Query  string
	Root   *obs.Span
	Result *Result
}

// String renders the span tree (the audbsh \trace output).
func (t *QueryTrace) String() string { return t.Root.String() }

// Trace compiles and executes a query with the full lifecycle
// instrumented. Options compose as for QueryContext; like
// ExplainAnalyze, only the pipelined native executor is instrumented, and
// the execution is the analyzed physical plan (per-operator counters on).
// Cancelling ctx aborts the execution.
func (d *Database) Trace(ctx context.Context, q string, opts ...QueryOption) (*QueryTrace, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := d.resolve(opts)
	if err := cfg.instrumented("Trace"); err != nil {
		return nil, err
	}
	root := obs.StartSpan("query")
	root.SetAttr("sql", q)

	snap := d.cat.Snapshot()
	cat := ra.CatalogMap(snap.Schemas())
	sp := root.StartChild("parse")
	plan, err := sql.Compile(q, cat)
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = root.StartChild("optimize")
	plan, tr, err := opt.OptimizeTrace(plan, cat)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp.SetInt("passes", int64(tr.Passes))
	for _, s := range tr.Steps {
		rule := &obs.Span{Name: "rule " + s.Rule, Dur: s.Elapsed}
		rule.SetInt("pass", int64(s.Pass))
		sp.Attach(rule)
	}

	var est *opt.Annotations
	if cfg.costEnabled() {
		sp = root.StartChild("cost")
		var steps []opt.Step
		plan, est, steps, err = opt.CostOptimizeTrace(plan, cat, d.st)
		sp.End()
		if err != nil {
			return nil, err
		}
		for _, s := range steps {
			sp.Attach(&obs.Span{Name: "rule " + s.Rule, Dur: s.Elapsed})
		}
		if rows, ok := est.EstRows(plan); ok {
			sp.SetInt("est_rows", rows)
		}
	}

	sp = root.StartChild("lower")
	pp, err := phys.Compile(plan, snap, phys.Options{Exec: cfg.opts, Analyze: true, Est: est})
	sp.End()
	if err != nil {
		return nil, err
	}

	ex := root.StartChild("execute")
	res, err := pp.Execute(ctx)
	ex.End()
	if err != nil {
		return nil, err
	}
	if st := pp.Stats(); st != nil {
		ex.SetInt("batch_size", int64(st.BatchSize))
		if st.Root != nil {
			ex.Attach(opSpan(st.Root))
		}
	}
	root.SetInt("rows", int64(res.Len()))
	root.End()
	return &QueryTrace{Query: q, Root: root, Result: res}, nil
}

// opSpan converts one operator's execution counters into a pre-timed
// span, adopting metrics.OpStats as the span payload.
func opSpan(o *metrics.OpStats) *obs.Span {
	s := &obs.Span{Name: o.Op, Dur: o.Elapsed}
	s.SetAttr("strategy", o.Strategy)
	s.SetInt("rows", o.Rows)
	if o.HasEst {
		s.SetInt("est", o.EstRows)
	}
	s.SetInt("batches", o.Batches)
	for _, c := range o.Children {
		s.Attach(opSpan(c))
	}
	return s
}
