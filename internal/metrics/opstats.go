package metrics

import (
	"fmt"
	"strings"
	"time"
)

// This file holds the runtime side of the metrics package: per-operator
// execution counters for EXPLAIN ANALYZE. The physical executor
// (internal/phys) fills one OpStats per physical operator while the query
// runs; the accuracy measures above are computed after the fact.

// OpStats is one physical operator's execution counters.
type OpStats struct {
	// Op is the logical operator rendering (e.g. "Select[(a < 3)]").
	Op string
	// Strategy names the physical realization: "stream" for pipelined
	// operators, "materialize" for pipeline breakers, "exchange(n)" for a
	// parallel scan segment over n partitions, "top-k" for the fused
	// ORDER BY + LIMIT.
	Strategy string
	// Rows is the number of tuples this operator emitted.
	Rows int64
	// EstRows is the planner's estimated output rows (meaningful when
	// HasEst) — printed next to the actual count so estimate-vs-actual
	// drift is visible in one trace.
	EstRows int64
	// HasEst reports whether the cost model produced an estimate for
	// this operator (false when cost-based planning was skipped, as for
	// compressed executions).
	HasEst bool
	// Batches is the number of non-empty batches this operator emitted.
	// Materialized operators stream their result too, so they report
	// ceil(rows / batch size) like any other operator.
	Batches int64
	// ColBatches counts the emitted batches that were columnar
	// (struct-of-arrays views with a selection vector); the remainder were
	// row batches.
	ColBatches int64
	// ColRows is the live rows of the columnar batches (selection-vector
	// survivors) and ColPhysRows their physical rows; their ratio is the
	// mean selection-vector density this operator emitted.
	ColRows     int64
	ColPhysRows int64
	// Elapsed is cumulative wall time spent inside this operator,
	// including its children (the root's Elapsed is the execution time).
	Elapsed time.Duration
	// Children are the input operators' counters.
	Children []*OpStats
}

// Rep names the batch representation the operator emitted: "row", "col",
// "mixed" when both occurred, or "-" when it emitted no batches.
func (s *OpStats) Rep() string {
	switch {
	case s.Batches == 0:
		return "-"
	case s.ColBatches == 0:
		return "row"
	case s.ColBatches == s.Batches:
		return "col"
	default:
		return "mixed"
	}
}

// VecDensity renders the mean selection-vector density of the columnar
// batches (live rows over physical rows), or "-" when none were emitted.
func (s *OpStats) VecDensity() string {
	if s.ColPhysRows == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(s.ColRows)/float64(s.ColPhysRows))
}

// Self is the operator's own time: Elapsed minus the children's.
func (s *OpStats) Self() time.Duration {
	d := s.Elapsed
	for _, c := range s.Children {
		d -= c.Elapsed
	}
	if d < 0 {
		d = 0
	}
	return d
}

// ExecStats is the EXPLAIN ANALYZE result for one execution.
type ExecStats struct {
	// BatchSize is the pipeline batch size used.
	BatchSize int
	// Total is the end-to-end execution time (open, drain, merge).
	Total time.Duration
	// Root is the root operator's counters.
	Root *OpStats
}

// String renders the analysis as an indented operator tree, one line per
// operator with its strategy and counters — the format audbsh \analyze
// prints. Every column is padded to the widest value in the tree, so
// est=- lines align with est=<n> lines and large counts never shift
// the columns to their right.
func (s *ExecStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "execution: batch %d, total %s\n", s.BatchSize, fmtDur(s.Total))
	if s.Root == nil {
		return sb.String()
	}
	type row struct {
		op, strategy, rep, rows, est, batches, vec, time, self string
	}
	var rows []row
	var wOp, wStrategy, wRep, wRows, wEst, wBatches, wVec int
	var collect func(o *OpStats, depth int)
	collect = func(o *OpStats, depth int) {
		est := "-"
		if o.HasEst {
			est = fmt.Sprintf("%d", o.EstRows)
		}
		r := row{
			op:       strings.Repeat("  ", depth) + o.Op,
			strategy: o.Strategy,
			rep:      o.Rep(),
			rows:     fmt.Sprintf("%d", o.Rows),
			est:      est,
			batches:  fmt.Sprintf("%d", o.Batches),
			vec:      o.VecDensity(),
			time:     fmtDur(o.Elapsed),
			self:     fmtDur(o.Self()),
		}
		rows = append(rows, r)
		wOp = max(wOp, len(r.op))
		wStrategy = max(wStrategy, len(r.strategy))
		wRep = max(wRep, len(r.rep))
		wRows = max(wRows, len(r.rows))
		wEst = max(wEst, len(r.est))
		wBatches = max(wBatches, len(r.batches))
		wVec = max(wVec, len(r.vec))
		for _, c := range o.Children {
			collect(c, depth+1)
		}
	}
	collect(s.Root, 0)
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s  %-*s rep=%-*s rows=%-*s est=%-*s batches=%-*s vec=%-*s time=%s (self %s)\n",
			wOp, r.op, wStrategy, r.strategy, wRep, r.rep, wRows, r.rows, wEst, r.est, wBatches, r.batches, wVec, r.vec, r.time, r.self)
	}
	return sb.String()
}

// fmtDur renders durations with millisecond precision suited to query
// timings (short times keep microsecond detail).
func fmtDur(d time.Duration) string {
	if d < time.Millisecond {
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}
