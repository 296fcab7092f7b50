package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// spec is BENCHMARK.json: the contract the driver checks this program
// against, and the source of the regression bounds -selfcheck applies.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver uses for its spread check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		j := max(1, min(i*(ld+1)/4, ld-1))
		delta := i*(ld+1) - j*4 // outside [0,4] when j was clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// runSelfcheck runs the suite k times in each of two sets, interleaved
// A,B,A,B…, run i of either set on seed i. It prints, per workload and
// end-to-end metric, both medians, how much worse the worse set is, both
// spreads and the bound, and fails when two sets of runs of the same code
// disagree by more than the benchmark's own bounds.
func runSelfcheck(ctx context.Context, ws []workload, k int, box time.Duration, specPath string, env *environment, stdout, stderr io.Writer) int {
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: selfcheck:", err)
		return 1
	}
	if k < 2 {
		fmt.Fprintln(stderr, "benchmark: selfcheck needs at least 2 runs per set")
		return 2
	}
	// values[set][workload][metric] in run order.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
	}
	for i := 0; i < k; i++ {
		for set := range values {
			for _, w := range ws {
				rep, err := measure(ctx, w, int64(i+1), box, env)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s: %v\n", w.name, err)
					return 1
				}
				if rep.failed > 0 {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s: %d of %d ops failed\n", w.name, rep.failed, rep.attempted)
					return 1
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for _, m := range rep.metrics {
					values[set][w.name][m.name] = append(values[set][w.name][m.name], m.value)
				}
				fmt.Fprintf(stderr, "selfcheck: run %d/%d set %c %s done\n", i+1, k, 'A'+set, w.name)
			}
		}
	}
	fmt.Fprintf(stdout, "%-15s %-22s %12s %12s %8s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse%", "iqr A%", "iqr B%", "bound%", "")
	code := 0
	for _, w := range ws {
		for _, m := range sp.EndToEnd {
			a, b := values[0][w.name][m.Name], values[1][w.name][m.Name]
			if len(a) == 0 {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %s did not report %s\n", w.name, m.Name)
				return 1
			}
			ma, mb := median(a), median(b)
			worse := math.Abs(mb-ma) / math.Min(math.Abs(ma), math.Abs(mb))
			sa, sb := spread(a), spread(b)
			status := "ok"
			switch {
			case worse > m.Bound:
				status = "FAIL: sets disagree"
				code = 1
			case m.Name != "setup_s" && math.Max(sa, sb) > m.Bound:
				status = "FAIL: spread over bound"
				code = 1
			case m.Name != "setup_s" && math.Max(sa, sb) > m.Bound/2:
				status = "warn: spread over half the bound"
			}
			fmt.Fprintf(stdout, "%-15s %-22s %12.6g %12.6g %8.2f %8.2f %8.2f %7.1f  %s\n", w.name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, status)
		}
	}
	return code
}
