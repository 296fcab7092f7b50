package main

import (
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateTiny = flag.Bool("update-golden", false, "rewrite the tiny/ entries of testdata/golden.json")

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires rep to hold exactly the metrics of want, each once
// and finite. End-to-end metrics must also be non-zero; a layer metric may
// be zero where the workload bypasses the layer (no columnar batch ever
// flows on tpch_uncertain).
func checkMetrics(t *testing.T, rep *report, want []specMetric, nonZero bool) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range rep.metrics {
		seen[m.name]++
		if !nameRE.MatchString(m.name) {
			t.Errorf("%s: metric name %q is not a valid name", rep.workload, m.name)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || (nonZero && m.value == 0) {
			t.Errorf("%s: %s = %v, want finite (and non-zero end to end)", rep.workload, m.name, m.value)
		}
	}
	for _, m := range want {
		if seen[m.Name] != 1 {
			t.Errorf("%s: %s emitted %d times, want once", rep.workload, m.Name, seen[m.Name])
		}
		delete(seen, m.Name)
		for _, got := range rep.metrics {
			if got.name == m.Name && got.unit != m.Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", rep.workload, m.Name, got.unit, m.Unit)
			}
		}
	}
	for name := range seen {
		t.Errorf("%s: emits %s, which BENCHMARK.json does not name", rep.workload, name)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rep.workload, rep.correct, rep.attempted, rep.failed)
	}
}

func value(rep *report, name string) float64 {
	for _, m := range rep.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// holds the output to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	if sp.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the -seconds default %d", sp.RunSeconds, defaultSeconds)
	}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("BENCHMARK.json: %q is not a valid metric name", m.Name)
		}
	}
	pin()
	g, err := loadGolden(".")
	if err != nil {
		t.Fatal(err)
	}
	env := &environment{golden: g, updateGolden: *updateTiny, outDir: t.TempDir()}
	ctx := context.Background()
	for i, full := range workloads {
		if sp.Workloads[i].Name != full.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, sp.Workloads[i].Name, full.name)
		}
		w := full.tiny()
		first, err := measure(ctx, w, 1, 0, env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, first, sp.EndToEnd, true)
		again, err := measure(ctx, w, 1, 0, env)
		if err != nil {
			t.Fatalf("%s again: %v", w.name, err)
		}
		for _, exact := range []string{"bound_width_rel", "certain_row_frac"} {
			if a, b := value(first, exact), value(again, exact); a != b {
				t.Errorf("%s: %s is %v then %v for the same seed, want bit-for-bit equal", w.name, exact, a, b)
			}
		}
		if err := gateOnly(ctx, w, 2, env); err != nil {
			t.Errorf("%s seed 2: %v", w.name, err)
		}
		if !env.updateGolden && !first.goldenChecked {
			t.Errorf("%s: no golden checked in for the smoke sizes, seed 1 (run go test -update-golden)", w.name)
		}

		traced, err := measureTraced(ctx, w, 1, 0, env)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, traced, sp.PerLayer, false)
		if _, err := os.Stat(filepath.Join(env.outDir, "trace_"+w.name+".json")); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", w.name, err)
		}
	}
	if env.updateGolden {
		if err := env.golden.save("."); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v, %v, want 0.5, 3.5", q1, q3)
	}
}
