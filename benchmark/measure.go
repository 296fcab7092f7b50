package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/audb/audb/internal/core"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	// goldenChecked reports whether the answers were also held to a golden
	// (one is checked in only for some seeds).
	goldenChecked bool
	// notes are printed above the metrics: sample counts per class, COPY
	// repetitions and whether a golden was checked.
	notes []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// median and percentile work on a copy; p is in (0,1] and picks the
// nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocCounter reads cumulative heap bytes allocated without stopping the
// world (runtime.ReadMemStats would).
type allocCounter struct{ s [1]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.s[0].Name = "/gc/heap/allocs:bytes"
	return a
}

func (a *allocCounter) bytes() uint64 {
	metrics.Read(a.s[:])
	return a.s[0].Value.Uint64()
}

// opSample is one timed op.
type opSample struct {
	class int
	ms    float64
}

// loop is the closed measurement loop: one connection, one op in flight,
// classes interleaved round-robin in whole rounds. Every op is preceded by
// a forced collection outside its timed region, so no op inherits the
// garbage of the one before it.
type loop struct {
	in  *instance
	w   workload
	d   *dataset
	ver *verified

	samples     []opSample
	copyKRowsPS []float64 // one per timed COPY
	copyRows    int
	cpu         time.Duration
	allocBytes  uint64
	attempted   int
	failed      int
	rounds      int
	alloc       *allocCounter
}

func newLoop(in *instance, w workload, d *dataset, ver *verified) *loop {
	return &loop{in: in, w: w, d: d, ver: ver, alloc: newAllocCounter()}
}

// timed runs fn between a forced collection and the resource samples, and
// accounts its CPU and allocation to the loop.
func (l *loop) timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	a0, c0 := l.alloc.bytes(), cpuTime()
	t0 := time.Now()
	err := fn()
	el := time.Since(t0)
	l.cpu += cpuTime() - c0
	l.allocBytes += l.alloc.bytes() - a0
	l.attempted++
	return el, err
}

// round runs one round: on an ingest workload the COPY-replace of
// lineitem+orders first, then every class once. query is how an op is
// sent; the traced run substitutes its own.
func (l *loop) round(ctx context.Context, query func(ctx context.Context, ci int) (*core.Relation, error)) error {
	variant := l.variant()
	if l.w.ingest {
		ts := l.d.variants[variant]
		rows := 0
		for i := range ts {
			rows += len(ts[i].tuples)
		}
		l.in.dropTables(ts)
		el, err := l.timed(func() error { return l.in.copyTables(ctx, ts) })
		if err != nil {
			return err
		}
		l.copied(rows, el)
	}
	for ci, c := range classes {
		var res *core.Relation
		el, err := l.timed(func() (err error) {
			res, err = query(ctx, ci)
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if digest(res) != l.ver.answers[variant][ci] {
			l.failed++
		}
		l.samples = append(l.samples, opSample{ci, float64(el.Nanoseconds()) / 1e6})
	}
	l.rounds++
	return nil
}

// variant is the content the current round queries: the next of the
// pre-generated ones on an ingest workload, the base content otherwise.
func (l *loop) variant() int {
	if !l.w.ingest {
		return 0
	}
	return l.rounds % len(l.d.variants)
}

func (l *loop) copied(rows int, el time.Duration) {
	l.copyRows += rows
	l.copyKRowsPS = append(l.copyKRowsPS, float64(rows)/el.Seconds()/1000)
}

func (l *loop) remote(ctx context.Context, ci int) (*core.Relation, error) {
	return l.in.conn.Query(ctx, classes[ci].sql, queryOpts...)
}

// run repeats rounds until both the time box and the round minimum are met.
func (l *loop) run(ctx context.Context, box time.Duration, minRounds int) error {
	start := time.Now()
	for l.rounds < minRounds || time.Since(start) < box {
		if err := l.round(ctx, l.remote); err != nil {
			return err
		}
	}
	return nil
}

func (l *loop) byClass() [][]float64 {
	out := make([][]float64, len(classes))
	for _, s := range l.samples {
		out[s.class] = append(out[s.class], s.ms)
	}
	return out
}

func (l *loop) queriesPerSecond() float64 {
	var ms float64
	for _, s := range l.samples {
		ms += s.ms
	}
	return float64(len(l.samples)) / (ms / 1000)
}

// copyPhase measures COPY throughput on a non-ingest workload by loading
// the workload's own lineitem into a scratch table until both sample
// minimums hold.
func (l *loop) copyPhase(ctx context.Context) error {
	li := l.d.table("lineitem")
	for len(l.copyKRowsPS) < l.w.copyReps || l.copyRows < l.w.copyRows {
		el, err := l.timed(func() error { return l.in.copyTable(ctx, "copy_scratch", li) })
		if err != nil {
			return err
		}
		l.copied(len(li.tuples), el)
	}
	return nil
}

// measure is the untraced run: set-up (several times), the correctness
// gate, the timed loop, the COPY phase, and the end-to-end metrics.
func measure(ctx context.Context, w workload, seed int64, box time.Duration, env *environment) (*report, error) {
	d := generate(w, seed)
	var in *instance
	var setups []setupResult
	for i := 0; i < w.setupReps; i++ {
		if in != nil {
			in.stop()
		}
		var res setupResult
		var err error
		if in, res, err = setup(ctx, w, d); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, res)
	}
	defer in.stop()

	ver, err := gate(ctx, in, w, d, seed, env)
	if err != nil {
		return nil, err
	}
	l := newLoop(in, w, d, ver)
	if err := l.run(ctx, box, w.minRounds); err != nil {
		return nil, fmt.Errorf("timed loop: %w", err)
	}
	timedOps := l.attempted // queries plus, on an ingest workload, COPYs
	// On an ingest workload the in-cycle COPYs are the COPY samples;
	// elsewhere a COPY phase of its own follows the timed loop.
	copies := l
	if !w.ingest {
		copies = newLoop(in, w, d, ver)
		if err := copies.copyPhase(ctx); err != nil {
			return nil, fmt.Errorf("copy phase: %w", err)
		}
		l.attempted += copies.attempted
	}

	acc, err := referenceAccuracy(ctx, w)
	if err != nil {
		return nil, err
	}

	rep := &report{workload: w.name, attempted: l.attempted, failed: l.failed}
	rep.correct = l.failed == 0
	rep.goldenChecked = ver.goldenChecked
	var secs, stored []float64
	for _, s := range setups {
		secs = append(secs, s.seconds)
		stored = append(stored, s.storedBytes)
	}
	rep.add("setup_s", median(secs), "s")
	by := l.byClass()
	meds := make([]float64, len(classes))
	for ci, c := range classes {
		meds[ci] = median(by[ci])
		rep.add(c.name+"_p50_ms", meds[ci], "ms")
	}
	ratios := make([]float64, len(l.samples))
	for i, s := range l.samples {
		ratios[i] = s.ms / meds[s.class]
	}
	rep.add("tail_p95_x", percentile(ratios, 0.95), "ratio")
	rep.add("queries_per_s", l.queriesPerSecond(), "1/s")
	rep.add("copy_krows_per_s", median(copies.copyKRowsPS), "krows/s")
	rep.add("cpu_ms_per_query", ms(l.cpu)/float64(timedOps), "ms")
	rep.add("alloc_mb_per_query", float64(l.allocBytes)/1e6/float64(timedOps), "MB")
	rep.add("stored_bytes_per_cell", median(stored)/float64(d.cells), "B")
	rep.add("bound_width_rel", acc.boundWidth(), "ratio")
	rep.add("certain_row_frac", acc.certainFrac(), "ratio")

	rep.notes = append(rep.notes, sampleNote(by, len(l.samples), l.rounds))
	rep.notes = append(rep.notes, fmt.Sprintf("copy samples: %d repetitions, %d rows", len(copies.copyKRowsPS), copies.copyRows))
	rep.notes = append(rep.notes, fmt.Sprintf("set-up: %d repetitions, median %.3f s", len(secs), median(secs)))
	if ver.goldenChecked {
		rep.notes = append(rep.notes, "answers matched the reference executor and the golden for this seed")
	} else {
		rep.notes = append(rep.notes, "answers matched the reference executor (no golden checked in for this seed)")
	}
	return rep, nil
}

func sampleNote(by [][]float64, pooled, rounds int) string {
	s := fmt.Sprintf("samples: %d rounds, %d pooled;", rounds, pooled)
	for ci, c := range classes {
		s += fmt.Sprintf(" %s=%d", c.name, len(by[ci]))
	}
	return s
}
