// Command benchmark is the repository's perf ledger: it builds a loopback
// audbd, loads TPC-H-shaped AU-DB tables generated from a seed, verifies
// every answer against the reference executor, and reports end-to-end
// metrics (untraced run) or per-layer metrics (traced run) by name. The
// metric names, units and regression bounds are fixed in BENCHMARK.json at
// the repository root; README.md in this directory is the glossary.
//
//	go run ./benchmark -workload tpch_certain -seed 1 -seconds 16 -trace 0
//
// Without -workload every workload runs in turn. The last line printed for
// a workload is one JSON object with its metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 16

// The program runs from the repository root (go run ./benchmark): its own
// directory and the contract are at fixed places below it.
const (
	benchDir = "benchmark"
	specPath = "BENCHMARK.json"
)

// environment is what a run needs besides its workload: the golden
// answers and where span files go.
type environment struct {
	golden       golden
	updateGolden bool
	outDir       string
}

// pin fixes the runtime knobs the numbers depend on, whatever the caller's
// environment says: two Ps (the box's core count) and the default GC pace.
func pin() {
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all, in turn)")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file per workload")
	selfcheck := fs.Int("selfcheck", 0, "run the suite K times in each of two interleaved sets and compare their medians against the bounds")
	update := fs.Bool("update-golden", false, "rewrite testdata/golden.json for the seeds run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pin()
	g, err := loadGolden(benchDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	env := &environment{golden: g, updateGolden: *update, outDir: filepath.Join(benchDir, "out")}

	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = []workload{w}
	}
	ctx := context.Background()
	box := time.Duration(*seconds * float64(time.Second))
	if *selfcheck > 0 {
		return runSelfcheck(ctx, ws, *selfcheck, box, specPath, env, stdout, stderr)
	}
	if *update {
		for _, w := range ws {
			if err := gateOnly(ctx, w, *seed, env); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
		}
		if err := env.golden.save(benchDir); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	code := 0
	for _, w := range ws {
		var rep *report
		var err error
		if *trace == 1 {
			rep, err = measureTraced(ctx, w, *seed, box, env)
		} else {
			rep, err = measure(ctx, w, *seed, box, env)
		}
		if err == nil {
			err = printReport(stdout, rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		if !rep.correct {
			code = 1
		}
	}
	return code
}

// gateOnly runs set-up and the correctness gate without measuring, which
// is all it takes to learn or check a seed's answers.
func gateOnly(ctx context.Context, w workload, seed int64, env *environment) error {
	d := generate(w, seed)
	in, _, err := setup(ctx, w, d)
	if err != nil {
		return err
	}
	defer in.stop()
	_, err = gate(ctx, in, w, d, seed, env)
	return err
}

// resultJSON is the line the driver parses.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric by name with its unit, then the result
// line. A non-finite metric is an error: the run printed no result.
func printReport(w io.Writer, rep *report) error {
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
	}
	fmt.Fprintf(w, "== %s\n", rep.workload)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	out := resultJSON{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricJSON{}}
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = metricJSON{m.value, m.unit}
	}
	fmt.Fprintf(w, "%-40s %14d\n%-40s %14d\n", "attempted", rep.attempted, "failed", rep.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
