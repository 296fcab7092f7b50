// Package bench is the experiment harness: one entry per table and figure
// of the paper's evaluation (Section 12), each regenerating the same
// rows/series the paper reports. Absolute numbers differ from the paper's
// Postgres-on-2011-hardware setup; the shape — which system wins, growth
// trends, crossover points — is the reproduction target (the README's
// "Substitutions" list names each in-memory stand-in).
package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/baselines"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/tpch"
	"github.com/audb/audb/internal/translate"
	"github.com/audb/audb/internal/worlds"
)

// Config selects experiment sizes and executor parallelism.
type Config struct {
	// Quick shrinks datasets so the whole suite runs in minutes; the full
	// sizes approach the paper's (scaled to this in-memory engine).
	Quick bool
	// Tiny shrinks Quick sizes further so the whole suite smoke-runs in
	// seconds — the mode used by `go test ./internal/bench` unless
	// AUDB_BENCH_FULL is set. Implies Quick.
	Tiny bool
	Seed int64
	// Workers is threaded into core.Options.Workers for every AU-DB
	// execution: 0 uses one worker per CPU, 1 forces the serial reference
	// path.
	Workers int
}

// opts overlays this configuration's parallelism onto experiment-chosen
// compression options.
func (c Config) opts(o core.Options) core.Options {
	o.Workers = c.Workers
	return o
}

// size picks the dataset size for the active mode. Tiny falls back to
// quick/8 (at least 1) when no explicit tiny size is given.
func (c Config) size(full, quick int) int {
	if c.Tiny {
		if s := quick / 8; s > 0 {
			return s
		}
		return 1
	}
	if c.Quick {
		return quick
	}
	return full
}

// sizef is size for fractional scale factors.
func (c Config) sizef(full, quick float64) float64 {
	if c.Tiny {
		return quick / 8
	}
	if c.Quick {
		return quick
	}
	return full
}

// quickish reports whether any reduced-size mode is active.
func (c Config) quickish() bool { return c.Quick || c.Tiny }

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Render pretty-prints the table.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	line(dashes(widths))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// Experiment is a runnable experiment. Run observes ctx: cancelling it
// aborts the experiment's query executions with ctx.Err().
type Experiment struct {
	ID    string
	Run   func(context.Context, Config) (*Table, error)
	Paper string // which paper artifact it reproduces
}

// Registry lists every experiment in figure order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "fig10a", Run: Fig10a, Paper: "Figure 10a: PDBench queries, varying uncertainty"},
		{ID: "fig10b", Run: Fig10b, Paper: "Figure 10b: PDBench queries, varying database size"},
		{ID: "fig11", Run: Fig11, Paper: "Figure 11: simple aggregation, varying #agg operators"},
		{ID: "fig12", Run: Fig12, Paper: "Figure 12: TPC-H query performance"},
		{ID: "fig13a", Run: Fig13a, Paper: "Figure 13a: varying #group-by attributes"},
		{ID: "fig13b", Run: Fig13b, Paper: "Figure 13b: varying #aggregation functions"},
		{ID: "fig13c", Run: Fig13c, Paper: "Figure 13c: varying attribute range"},
		{ID: "fig13d", Run: Fig13d, Paper: "Figure 13d: compression trade-off"},
		{ID: "fig14", Run: Fig14, Paper: "Figure 14a/b: join optimization"},
		{ID: "fig15", Run: Fig15, Paper: "Figure 15a/b: aggregation accuracy vs attribute range"},
		{ID: "fig16", Run: Fig16, Paper: "Figure 16: multi-join performance"},
		{ID: "fig17", Run: Fig17, Paper: "Figure 17: real-world data (simulated profiles)"},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// timeIt measures one execution.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

func ratio(d, base time.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(d)/float64(base))
}

// pdbenchData bundles one uncertain TPC-H instance in every
// representation the compared systems consume.
type pdbenchData struct {
	det    bag.DB
	xdb    worlds.XDB
	audb   core.DB
	uadb   *baselines.UADB
	libkin bag.DB
	cat    ra.CatalogMap
}

func buildPDBench(scale, cellProb, rangeFrac float64, seed int64) *pdbenchData {
	det := tpch.Generate(tpch.Config{Scale: scale, Seed: seed})
	xdb := tpch.InjectPDBench(det, cellProb, rangeFrac, seed+1)
	return &pdbenchData{
		det:    det,
		xdb:    xdb,
		audb:   translate.XDBAll(xdb),
		uadb:   baselines.UADBFromX(xdb),
		libkin: baselines.LibkinDB(xdb),
		cat:    ra.CatalogMap(det.Schemas()),
	}
}
