package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/opt"
	"github.com/audb/audb/internal/phys"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/sql"
	"github.com/audb/audb/internal/stats"
	"github.com/audb/audb/internal/translate"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/wire"
)

// This file holds the per-layer measurements the traced run takes outside
// its query loop: direct calls into one layer at a time.

// serial is the executor setting of every in-process call: one worker,
// like the remote queries.
var serial = core.Options{Workers: 1}

// kernelReps is how often a directly called kernel is repeated; its
// metric is the median.
const kernelReps = 5

// timeMedian runs fn reps times and returns its median duration.
func timeMedian(reps int, fn func() error) (time.Duration, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// frontLayers are the span names of the layers QueryContext calls before
// execution, in its order.
var frontLayers = []string{"sql.compile", "opt.optimize", "opt.cost", "phys.compile"}

// pipeline takes one text through frontLayers, handing each call to around
// under the layer's name: the traced loop wraps it in a span, the front-end
// measurement repeats it, plans just calls it. It returns the logical plan
// the executor is given and the compiled physical plan.
func pipeline(text string, snap core.DB, prov stats.Provider, opts phys.Options, around func(layer string, call func() error) error) (ra.Node, *phys.Plan, error) {
	cat := ra.CatalogMap(snap.Schemas())
	var parsed, optimized, costed ra.Node
	var est *opt.Annotations
	var compiled *phys.Plan
	calls := []func() error{
		func() (err error) { parsed, err = sql.Compile(text, cat); return err },
		func() (err error) { optimized, err = opt.Optimize(parsed, cat); return err },
		func() (err error) { costed, est, err = opt.CostOptimize(optimized, cat, prov); return err },
		func() (err error) {
			opts.Est = est
			compiled, err = phys.Compile(costed, snap, opts)
			return err
		},
	}
	for i, call := range calls {
		if err := around(frontLayers[i], call); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", frontLayers[i], err)
		}
	}
	return costed, compiled, nil
}

// plans compiles every class the way QueryContext would.
func plans(snap core.DB, prov stats.Provider) ([]ra.Node, error) {
	out := make([]ra.Node, len(classes))
	for ci, c := range classes {
		plan, _, err := pipeline(c.sql, snap, prov, phys.Options{Exec: serial}, func(_ string, call func() error) error { return call() })
		if err != nil {
			return nil, err
		}
		out[ci] = plan
	}
	return out, nil
}

// walk calls visit on every node of the plan, parents first.
func walk(n ra.Node, visit func(ra.Node)) {
	if ra.IsNil(n) {
		return
	}
	visit(n)
	for _, c := range n.Children() {
		walk(c, visit)
	}
}

// operator returns the class's first operator of type T, the one whose
// kernel the class exists to exercise.
func operator[T ra.Node](ps []ra.Node, class string) (T, error) {
	var found T
	ok := false
	walk(ps[classIndex(class)], func(n ra.Node) {
		if t, is := n.(T); is && !ok {
			found, ok = t, true
		}
	})
	if !ok {
		return found, fmt.Errorf("kernels: %s plan has no %T", class, found)
	}
	return found, nil
}

func classIndex(name string) int {
	for i, c := range classes {
		if c.name == name {
			return i
		}
	}
	panic("benchmark: no class " + name)
}

// frontEnd measures the layers that run before execution, each as the
// median of w.microCalls calls, summed over the six texts.
func frontEnd(ctx context.Context, rep *report, w workload, in *instance, snap core.DB, prov stats.Provider, inprocMS []float64) error {
	db := in.srv.DB()
	layer := map[string]time.Duration{}
	var saving time.Duration
	ruleFires := 0
	for ci, c := range classes {
		_, _, err := pipeline(c.sql, snap, prov, phys.Options{Exec: serial}, func(name string, call func() error) error {
			d, err := timeMedian(w.microCalls, call)
			layer[name] += d
			return err
		})
		if err != nil {
			return err
		}
		parsed, err := db.Plan(c.sql)
		if err != nil {
			return err
		}
		_, tr, err := opt.OptimizeTrace(parsed, ra.CatalogMap(snap.Schemas()))
		if err != nil {
			return err
		}
		ruleFires += len(tr.Steps)

		// What a prepared statement saves: the same execution with and
		// without parse + rule optimization. Executions are expensive, so
		// the call count shrinks with the class's latency.
		calls := int(math.Max(5, math.Min(float64(w.microCalls), 250/inprocMS[ci])))
		stmt, err := db.Prepare(c.sql)
		if err != nil {
			return err
		}
		adhoc, err := timeMedian(calls, func() error {
			_, err := db.QueryContext(ctx, c.sql, audb.WithWorkers(1))
			return err
		})
		if err != nil {
			return err
		}
		prepared, err := timeMedian(calls, func() error {
			_, err := stmt.Exec(ctx, audb.WithWorkers(1))
			return err
		})
		if err != nil {
			return err
		}
		saving += adhoc - prepared
	}
	collect, err := timeMedian(kernelReps, func() error {
		for name, rel := range snap {
			stats.Collect(name, rel)
		}
		return nil
	})
	if err != nil {
		return err
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	rep.add("sql.compile_us", us(layer["sql.compile"]), "us")
	rep.add("opt.optimize_us", us(layer["opt.optimize"]), "us")
	rep.add("opt.rule_fires", float64(ruleFires), "count")
	rep.add("opt.cost_us", us(layer["opt.cost"]), "us")
	rep.add("phys.compile_us", us(layer["phys.compile"]), "us")
	rep.add("audb.stmt_exec_saving_us", us(saving), "us")
	rep.add("stats.collect_ms", ms(collect), "ms")
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// nsPerRow guards the division for the tiny smoke sizes.
func nsPerRow(d time.Duration, rows int) float64 {
	return float64(d.Nanoseconds()) / math.Max(float64(rows), 1)
}

// kernels calls the core and expr kernels directly on the materialised
// inputs of the class that uses them.
func kernels(ctx context.Context, rep *report, in *instance, snap core.DB, ps []ra.Node) error {
	materialise := func(n ra.Node) (*core.Relation, error) {
		return phys.Exec(ctx, n, snap, phys.Options{Exec: serial})
	}
	lineitem := snap["lineitem"]

	// Selection: the scan class's predicate over stored lineitem.
	sel, err := operator[*ra.Select](ps, "scan")
	if err != nil {
		return err
	}
	d, err := timeMedian(kernelReps, func() error {
		_, err := core.ApplySelect(ctx, lineitem, sel.Pred, serial)
		return err
	})
	if err != nil {
		return err
	}
	rep.add("core.select_ns_per_row", nsPerRow(d, lineitem.Len()), "ns")

	join, err := operator[*ra.Join](ps, "join")
	if err != nil {
		return err
	}
	if err := timeKernel(rep, "core.join_ns_per_row", join.Children(), materialise, func(in []*core.Relation) error {
		_, err := core.JoinRelations(ctx, in[0], in[1], join.Cond, serial)
		return err
	}); err != nil {
		return err
	}
	diff, err := operator[*ra.Diff](ps, "diff")
	if err != nil {
		return err
	}
	if err := timeKernel(rep, "core.diff_ns_per_row", diff.Children(), materialise, func(in []*core.Relation) error {
		_, err := core.DiffRelations(ctx, in[0], in[1])
		return err
	}); err != nil {
		return err
	}
	agg, err := operator[*ra.Agg](ps, "agg")
	if err != nil {
		return err
	}
	aggSchema, err := ra.InferSchema(agg, ra.CatalogMap(snap.Schemas()))
	if err != nil {
		return err
	}
	if err := timeKernel(rep, "core.agg_ns_per_row", agg.Children(), materialise, func(in []*core.Relation) error {
		_, err := core.AggRelations(ctx, in[0], agg.GroupBy, agg.Aggs, aggSchema, serial)
		return err
	}); err != nil {
		return err
	}

	flat, cols := 0, 0
	for _, rel := range snap {
		_, f, _ := rel.StorageDetail()
		flat += f
		cols += rel.Schema.Arity()
	}
	rep.add("core.flat_col_frac", float64(flat)/float64(cols), "ratio")

	var compact []float64
	for i := 0; i < kernelReps; i++ {
		dense := lineitem.Dense().Clone() // Compact converts in place
		t0 := time.Now()
		dense.Compact(in.srv.DB().StoragePolicy())
		compact = append(compact, ms(time.Since(t0)))
	}
	rep.add("core.compact_ms", median(compact), "ms")

	// The same predicate column-at-a-time over flat columns (the
	// selected-guess values, so the kernel runs whatever the storage)
	// against row-at-a-time range evaluation over dense tuples.
	tuples := lineitem.Dense().Tuples
	prog, ok := expr.CompileVec(sel.Pred)
	if !ok {
		return fmt.Errorf("kernels: scan predicate %s does not vectorize", sel.Pred)
	}
	flatCols := make([][]types.Value, lineitem.Schema.Arity())
	for _, a := range prog.Attrs() {
		flatCols[a] = make([]types.Value, len(tuples))
		for i, t := range tuples {
			flatCols[a][i] = t.Vals[a].SG
		}
	}
	var live []int
	if d, err = timeMedian(kernelReps, func() (err error) {
		live, err = prog.SelectInto(flatCols, len(tuples), nil, live[:0])
		return err
	}); err != nil {
		return err
	}
	rep.add("expr.vec_select_ns_per_row", nsPerRow(d, len(tuples)), "ns")
	if d, err = timeMedian(kernelReps, func() error {
		for _, t := range tuples {
			if _, _, err := core.FilterTuple(t, sel.Pred); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rep.add("expr.row_eval_ns_per_row", nsPerRow(d, len(tuples)), "ns")

	eligible, exprs := 0, 0
	count := func(e expr.Expr) {
		if e == nil {
			return
		}
		exprs++
		if expr.CertainFastSafe(e) {
			eligible++
		}
	}
	for _, p := range ps {
		walk(p, func(n ra.Node) {
			switch n := n.(type) {
			case *ra.Select:
				count(n.Pred)
			case *ra.Join:
				count(n.Cond)
			case *ra.Project:
				for _, c := range n.Cols {
					count(c.E)
				}
			case *ra.Agg:
				for _, a := range n.Aggs {
					count(a.Arg)
				}
			}
		})
	}
	rep.add("expr.vec_eligible_frac", float64(eligible)/float64(exprs), "ratio")
	return nil
}

// timeKernel times a kernel per input row over the materialised results of
// inputs, materialising them afresh for every repetition because kernels
// own their inputs.
func timeKernel(rep *report, name string, inputs []ra.Node, materialise func(ra.Node) (*core.Relation, error), kernel func(in []*core.Relation) error) error {
	var ns []float64
	for i := 0; i < kernelReps; i++ {
		in := make([]*core.Relation, len(inputs))
		rows := 0
		for j, n := range inputs {
			var err error
			if in[j], err = materialise(n); err != nil {
				return err
			}
			rows += in[j].Len()
		}
		t0 := time.Now()
		if err := kernel(in); err != nil {
			return err
		}
		ns = append(ns, nsPerRow(time.Since(t0), rows))
	}
	rep.add(name, median(ns), "ns")
	return nil
}

// parallelSpeedup is the one place the benchmark lets the executor use
// both cores: the serial over the two-worker time of one class.
func parallelSpeedup(ctx context.Context, rep *report, snap core.DB, ps []ra.Node, class string) error {
	var t [2]time.Duration
	for i, workers := range []int{1, 2} {
		var err error
		t[i], err = timeMedian(kernelReps, func() error {
			_, err := phys.Exec(ctx, ps[classIndex(class)], snap, phys.Options{Exec: core.Options{Workers: workers}})
			return err
		})
		if err != nil {
			return err
		}
	}
	rep.add("phys.par2_speedup_x."+class, float64(t[0])/float64(t[1]), "ratio")
	return nil
}

// countingWriter counts the bytes of the frames written to it.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// service measures the wire format, the client round trip and the load
// path outside the query loop.
func service(ctx context.Context, rep *report, w workload, in *instance, d *dataset) error {
	li := d.table("lineitem")
	var cw countingWriter
	ww := wire.NewWriter(&cw)
	const chunk = 1024 // client.Bulk's chunk size
	for lo := 0; lo < len(li.tuples); lo += chunk {
		hi := min(lo+chunk, len(li.tuples))
		if err := ww.Write(wire.CopyData{ID: 1, Tuples: li.tuples[lo:hi]}); err != nil {
			return err
		}
	}
	rep.add("wire.copy_bytes_per_row", float64(cw.n)/float64(len(li.tuples)), "B")

	pings := make([]float64, w.microCalls)
	for i := range pings {
		t0 := time.Now()
		if err := in.conn.Ping(ctx); err != nil {
			return err
		}
		pings[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	rep.add("client.ping_p50_us", median(pings), "us")

	var add, commit []float64
	for i := 0; i < kernelReps; i++ {
		ld := audb.New().NewLoader("lineitem", li.cols...)
		t0 := time.Now()
		for _, t := range li.tuples {
			ld.Add(t.Vals, t.M)
		}
		t1 := time.Now()
		ld.Commit()
		add = append(add, nsPerRow(t1.Sub(t0), len(li.tuples)))
		commit = append(commit, ms(time.Since(t1)))
	}
	rep.add("loader.add_ns_per_row", median(add), "ns")
	rep.add("loader.commit_ms", median(commit), "ms")

	xdb, err := timeMedian(kernelReps, func() error {
		translate.XDB(d.lineitemX)
		return nil
	})
	if err != nil {
		return err
	}
	rep.add("translate.xdb_ns_per_row", nsPerRow(xdb, len(d.lineitemX.Tuples)), "ns")

	// What a COPY over an existing table name leaves behind per replaced
	// row (see instance.dropTables for the defect this quantifies).
	const replaces = 4
	if err := in.copyTable(ctx, "replace_scratch", li); err != nil {
		return err
	}
	heap0 := settledHeap()
	for i := 0; i < replaces; i++ {
		if err := in.copyTable(ctx, "replace_scratch", li); err != nil {
			return err
		}
	}
	retained := float64(settledHeap()) - float64(heap0)
	rep.add("core.replace_retained_bytes_per_row", retained/float64(replaces*len(li.tuples)), "B")
	return nil
}

// freeRun repeats the rounds without the forced collections, to see the
// collector as an unpinned client would: cycles and pause per query.
func freeRun(ctx context.Context, rep *report, in *instance, w workload, d *dataset, rounds int) error {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ops := 0
	for r := 0; r < rounds; r++ {
		if w.ingest {
			if err := in.replaceTables(ctx, d.variants[r%len(d.variants)]); err != nil {
				return err
			}
		}
		for _, c := range classes {
			if _, err := in.conn.Query(ctx, c.sql, queryOpts...); err != nil {
				return err
			}
			ops++
		}
	}
	runtime.ReadMemStats(&m1)
	rep.add("runtime.gc_cycles_per_query", float64(m1.NumGC-m0.NumGC)/float64(ops), "count")
	rep.add("runtime.gc_pause_ms_per_query", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/float64(ops), "ms")
	rep.add("runtime.heap_live_mb", float64(settledHeap())/1e6, "MB")
	return nil
}
