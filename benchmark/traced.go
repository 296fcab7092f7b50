package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/phys"
	"github.com/audb/audb/internal/stats"
	"github.com/audb/audb/internal/wire"
)

// unattributedLimit is how much of the in-process latency the staged
// pipeline's spans may leave unexplained (or over-explain) before the
// traced run of a workload with reconcile set is rejected.
const unattributedLimit = 0.15

// dbStats serves the database's own table statistics to the cost-based
// planner, so the staged pipeline plans exactly as QueryContext does.
type dbStats struct{ db *audb.Database }

func (p dbStats) TableStats(name string) (*stats.TableStats, bool) {
	ts, err := p.db.TableStats(name)
	return ts, err == nil
}

// snapshot is the catalog content as the in-process layers take it.
func snapshot(db *audb.Database) (core.DB, error) {
	snap := core.DB{}
	for _, name := range db.Tables() {
		rel, err := db.Relation(name)
		if err != nil {
			return nil, err
		}
		snap[name] = rel
	}
	return snap, nil
}

// stageStats is what one staged execution's operator counters add up to.
type stageStats struct {
	streamSelf, breakerSelf time.Duration
	scanRows, resultRows    int64
}

// tracedRun drives the traced loop: every op runs three times — remotely,
// in-process through Database.QueryContext, and stage by stage through
// the same layers QueryContext calls — each under its own span.
type tracedRun struct {
	in    *instance
	ver   *verified
	t     *tracer
	loop  *loop
	query int // query id of the op in flight

	perClass [][]stageStats
	// Batch counters summed over every staged execution.
	batches, colBatches, colRows, colPhysRows int64
	// Rows and encoded bytes of each class's result, as last seen.
	resultRows, resultBytes []int64
}

func newTracedRun(in *instance, w workload, d *dataset, ver *verified) *tracedRun {
	return &tracedRun{
		in: in, ver: ver, t: newTracer(), loop: newLoop(in, w, d, ver),
		perClass:    make([][]stageStats, len(classes)),
		resultRows:  make([]int64, len(classes)),
		resultBytes: make([]int64, len(classes)),
	}
}

// op is the traced replacement for loop.remote. The remote result is what
// the loop verifies; the other two executions are verified here.
func (tr *tracedRun) op(ctx context.Context, ci int) (*core.Relation, error) {
	c := classes[ci]
	tr.query++
	q := tr.query
	want := tr.ver.answers[tr.loop.variant()][ci]
	root := tr.t.begin(rootSpan, c.name, 0, q)
	defer tr.t.end(root)

	s := tr.t.begin("client.query", c.name, root, q)
	remote, err := tr.in.conn.Query(ctx, c.sql, queryOpts...)
	tr.t.end(s)
	if err != nil {
		return nil, err
	}

	db := tr.in.srv.DB()
	runtime.GC()
	s = tr.t.begin("audb.inproc", c.name, root, q)
	inproc, err := db.QueryContext(ctx, c.sql, audb.WithWorkers(1))
	tr.t.end(s)
	if err != nil {
		return nil, fmt.Errorf("in-process: %w", err)
	}

	snap, err := snapshot(db)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	staged, err := tr.staged(ctx, ci, root, q, snap, dbStats{db})
	if err != nil {
		return nil, fmt.Errorf("staged: %w", err)
	}
	for _, res := range []*core.Relation{inproc, staged} {
		tr.loop.attempted++
		if digest(res) != want {
			tr.loop.failed++
		}
	}
	return remote, nil
}

// staged runs one query through the layers in the order QueryContext
// calls them, one span per layer, with the executor instrumented.
func (tr *tracedRun) staged(ctx context.Context, ci, root, q int, snap core.DB, prov stats.Provider) (*core.Relation, error) {
	c := classes[ci]
	stage := tr.t.begin("staged", c.name, root, q)
	defer tr.t.end(stage)

	_, p, err := pipeline(c.sql, snap, prov, phys.Options{Exec: serial, Analyze: true}, func(layer string, call func() error) error {
		s := tr.t.begin(layer, c.name, stage, q)
		defer tr.t.end(s)
		return call()
	})
	if err != nil {
		return nil, err
	}
	exec := tr.t.begin("phys.execute", c.name, stage, q)
	res, err := p.Execute(ctx)
	tr.t.end(exec)
	if err != nil {
		return nil, err
	}
	if st := p.Stats(); st != nil && st.Root != nil {
		var ss stageStats
		tr.opSpans(st.Root, c.name, exec, q, tr.t.spans[exec-1].Start, &ss)
		ss.resultRows = int64(res.Len())
		tr.perClass[ci] = append(tr.perClass[ci], ss)
	}
	tr.resultRows[ci] = int64(res.Len())

	var buf bytes.Buffer
	s := tr.t.begin("wire.encode", c.name, stage, q)
	err = wire.NewWriter(&buf).Write(wire.Result{ID: 1, Rel: res})
	tr.t.end(s)
	if err != nil {
		return nil, err
	}
	tr.resultBytes[ci] = int64(buf.Len())
	s = tr.t.begin("wire.decode", c.name, stage, q)
	_, err = wire.NewReader(&buf).Read()
	tr.t.end(s)
	return res, err
}

// opSpans lays the executor's per-operator counters out as derived spans
// under the phys.execute span and sums self times by kind: pipeline
// breakers (strategy "materialize": the core kernels plus densifying their
// input) against everything that streams.
func (tr *tracedRun) opSpans(o *metrics.OpStats, class string, parent, q int, start int64, ss *stageStats) {
	id := tr.t.derived("phys.op", class, o.Strategy+" "+o.Op, parent, q, start, start+o.Elapsed.Nanoseconds())
	if o.Strategy == "materialize" {
		ss.breakerSelf += o.Self()
	} else {
		ss.streamSelf += o.Self()
	}
	if len(o.Children) == 0 {
		ss.scanRows += o.Rows
	}
	tr.batches += o.Batches
	tr.colBatches += o.ColBatches
	tr.colRows += o.ColRows
	tr.colPhysRows += o.ColPhysRows
	for _, c := range o.Children {
		tr.opSpans(c, class, id, q, start, ss)
		start += c.Elapsed.Nanoseconds()
	}
}

// tracedRounds is the round minimum of the traced loop and its untraced
// baseline: a fifth of the untraced run's, at least ten.
func tracedRounds(w workload) int { return max(10, w.minRounds/5) }

// measureTraced is the traced run. It reports only per-layer metrics;
// end-to-end metrics always come from the untraced run.
func measureTraced(ctx context.Context, w workload, seed int64, box time.Duration, env *environment) (*report, error) {
	d := generate(w, seed)
	in, _, err := setup(ctx, w, d)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.stop()
	ver, err := gate(ctx, in, w, d, seed, env)
	if err != nil {
		return nil, err
	}

	// Untraced baseline, then the same rounds again with spans.
	base := newLoop(in, w, d, ver)
	if err := base.run(ctx, box/5, tracedRounds(w)); err != nil {
		return nil, fmt.Errorf("baseline loop: %w", err)
	}
	tr := newTracedRun(in, w, d, ver)
	for tr.loop.rounds < base.rounds {
		if err := tr.loop.round(ctx, tr.op); err != nil {
			return nil, fmt.Errorf("traced loop: %w", err)
		}
	}
	if err := tr.t.check(); err != nil {
		return nil, err
	}

	rep := &report{workload: w.name}
	med := func(name string, ci int) float64 { return median(tr.t.durations(name, classes[ci].name)) }
	inprocMS := make([]float64, len(classes))
	var stagedSum, inprocSum, tracedBusy float64
	for ci := range classes {
		inprocMS[ci] = med("audb.inproc", ci)
		inprocSum += inprocMS[ci]
		for _, layer := range append([]string{"phys.execute"}, frontLayers...) {
			stagedSum += med(layer, ci)
		}
		for _, v := range tr.t.durations("client.query", classes[ci].name) {
			tracedBusy += v
		}
	}
	unattributed := 1 - stagedSum/inprocSum

	snap, err := snapshot(in.srv.DB())
	if err != nil {
		return nil, err
	}
	prov := dbStats{in.srv.DB()}
	ps, err := plans(snap, prov)
	if err != nil {
		return nil, err
	}
	if err := frontEnd(ctx, rep, w, in, snap, prov, inprocMS); err != nil {
		return nil, fmt.Errorf("front end: %w", err)
	}

	perClass := func(name, unit string, f func(ci int) float64) {
		for ci, c := range classes {
			rep.add(name+"."+c.name, f(ci), unit)
		}
	}
	stageMedian := func(ci int, f func(stageStats) float64) float64 {
		xs := make([]float64, len(tr.perClass[ci]))
		for i, s := range tr.perClass[ci] {
			xs[i] = f(s)
		}
		return median(xs)
	}
	perClass("phys.execute_ms", "ms", func(ci int) float64 { return med("phys.execute", ci) })
	perClass("phys.stream_self_ms", "ms", func(ci int) float64 {
		return stageMedian(ci, func(s stageStats) float64 { return ms(s.streamSelf) })
	})
	for _, name := range []string{"agg", "join", "mjoin", "diff"} { // the classes with a breaker
		ci := classIndex(name)
		rep.add("core.breaker_self_ms."+name, stageMedian(ci, func(s stageStats) float64 { return ms(s.breakerSelf) }), "ms")
	}
	perClass("phys.rows_examined_per_result", "count", func(ci int) float64 {
		return stageMedian(ci, func(s stageStats) float64 { return float64(s.scanRows) / math.Max(float64(s.resultRows), 1) })
	})
	rep.add("phys.col_batch_frac", float64(tr.colBatches)/float64(tr.batches), "ratio")
	// Zero when no columnar batch flowed at all (dense storage).
	rep.add("phys.vec_density", float64(tr.colRows)/math.Max(float64(tr.colPhysRows), 1), "ratio")
	for _, class := range []string{"agg", "join"} {
		if err := parallelSpeedup(ctx, rep, snap, ps, class); err != nil {
			return nil, err
		}
	}
	if err := kernels(ctx, rep, in, snap, ps); err != nil {
		return nil, err
	}

	perClass("wire.result_bytes", "count", func(ci int) float64 { return float64(tr.resultBytes[ci]) })
	scan := classIndex("scan")
	scanRows := int(tr.resultRows[scan])
	rep.add("wire.encode_ns_per_row", nsPerRow(time.Duration(med("wire.encode", scan)*1e6), scanRows), "ns")
	rep.add("wire.decode_ns_per_row", nsPerRow(time.Duration(med("wire.decode", scan)*1e6), scanRows), "ns")
	perClass("audb.inproc_ms", "ms", func(ci int) float64 { return inprocMS[ci] })
	perClass("server.remote_overhead_ms", "ms", func(ci int) float64 { return med("client.query", ci) - inprocMS[ci] })
	perClass("client.p90_ms", "ms", func(ci int) float64 { return percentile(tr.t.durations("client.query", classes[ci].name), 0.90) })
	if err := service(ctx, rep, w, in, d); err != nil {
		return nil, err
	}
	if err := freeRun(ctx, rep, in, w, d, base.rounds); err != nil {
		return nil, err
	}
	tracedQPS := float64(len(tr.loop.samples)) / (tracedBusy / 1000)
	rep.add("trace.overhead_x", tracedQPS/base.queriesPerSecond(), "ratio")
	rep.add("trace.unattributed_frac", unattributed, "ratio")

	path, err := tr.t.write(env.outDir, w.name)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	rep.attempted = base.attempted + tr.loop.attempted
	rep.failed = base.failed + tr.loop.failed
	rep.correct = rep.failed == 0
	rep.goldenChecked = ver.goldenChecked
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced run: %d rounds untraced then %d rounds traced, %d spans written to %s", base.rounds, tr.loop.rounds, len(tr.t.spans), path),
		fmt.Sprintf("staged layers explain %.1f%% of in-process latency (limit ±%.0f%% where enforced)", 100*(1-unattributed), 100*unattributedLimit))
	if w.reconcile && math.Abs(unattributed) > unattributedLimit {
		return nil, fmt.Errorf("trace: staged layers leave %.1f%% of in-process latency unattributed (limit %.0f%%)", 100*unattributed, 100*unattributedLimit)
	}
	return rep, nil
}
