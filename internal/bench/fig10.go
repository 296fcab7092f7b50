package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/baselines"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/tpch"
)

// pdbenchQueries is the SPJ workload of Figures 10a/10b.
var pdbenchQueries = []string{"PB1", "PB2", "PB3"}

// runPDBenchSystems times the whole SPJ workload on every system and
// returns the per-system total durations. opts should already carry the
// configured worker count (Config.opts).
func runPDBenchSystems(ctx context.Context, d *pdbenchData, opts core.Options) (map[string]time.Duration, error) {
	totals := map[string]time.Duration{}
	sgw, err := d.audb.SGWContext(ctx)
	if err != nil {
		return nil, err
	}
	for _, q := range pdbenchQueries {
		// The MayBMS/Trio baselines predate the context plumbing; check at
		// segment boundaries so Ctrl-C still lands between measurements.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		plan, err := tpch.Compile(q, d.cat)
		if err != nil {
			return nil, err
		}
		// Det: selected-guess query processing.
		dt, err := timeIt(func() error { _, e := bag.Exec(ctx, plan, sgw); return e })
		if err != nil {
			return nil, fmt.Errorf("%s det: %w", q, err)
		}
		totals["Det"] += dt
		// UA-DB.
		dt, err = timeIt(func() error { _, e := baselines.ExecUADB(ctx, plan, d.uadb); return e })
		if err != nil {
			return nil, fmt.Errorf("%s uadb: %w", q, err)
		}
		totals["UA-DB"] += dt
		// AU-DB (native engine with the split+Cpr join optimization).
		dt, err = timeIt(func() error { _, e := core.Exec(ctx, plan, d.audb, opts); return e })
		if err != nil {
			return nil, fmt.Errorf("%s audb: %w", q, err)
		}
		totals["AU-DB"] += dt
		// Libkin-style certain answers.
		dt, err = timeIt(func() error { _, e := baselines.ExecLibkin(ctx, plan, d.libkin); return e })
		if err != nil {
			return nil, fmt.Errorf("%s libkin: %w", q, err)
		}
		totals["Libkin"] += dt
		// MayBMS-style possible answers.
		dt, err = timeIt(func() error { _, e := baselines.ExecMayBMS(plan, d.xdb); return e })
		if err != nil {
			return nil, fmt.Errorf("%s maybms: %w", q, err)
		}
		totals["MayBMS"] += dt
		// MCDB-style sampling (10 worlds).
		dt, err = timeIt(func() error { _, e := baselines.ExecMCDB(ctx, plan, d.xdb, 10, 7); return e })
		if err != nil {
			return nil, fmt.Errorf("%s mcdb: %w", q, err)
		}
		totals["MCDB"] += dt
	}
	return totals, nil
}

var fig10Systems = []string{"Det", "UA-DB", "AU-DB", "Libkin", "MayBMS", "MCDB"}

// Fig10a reproduces Figure 10a: runtime of the PDBench SPJ workload
// normalized to deterministic SGQP, varying the amount of uncertainty.
func Fig10a(ctx context.Context, cfg Config) (*Table, error) {
	scale := cfg.sizef(0.05, 0.01)
	t := &Table{
		ID:      "fig10a",
		Title:   "PDBench SPJ workload, runtime / Det-runtime, varying uncertainty",
		Headers: append([]string{"uncertainty"}, fig10Systems...),
		Notes: []string{
			fmt.Sprintf("scale=%.3f (in-memory engine; see internal/tpch for the SF mapping)", scale),
			"alternatives span the whole domain (PDBench worst case)",
		},
	}
	uncs := []float64{0.02, 0.05, 0.10, 0.30}
	if cfg.Tiny {
		uncs = []float64{0.02, 0.30}
	}
	for _, unc := range uncs {
		d := buildPDBench(scale, unc, 1.0, cfg.Seed)
		totals, err := runPDBenchSystems(ctx, d, cfg.opts(core.Options{JoinCompression: 64}))
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("%.0f%%", unc*100)}
		for _, sys := range fig10Systems {
			row = append(row, ratio(totals[sys], totals["Det"]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig10b reproduces Figure 10b: the same workload at 2% uncertainty,
// varying the database size.
func Fig10b(ctx context.Context, cfg Config) (*Table, error) {
	scales := []float64{0.02, 0.1, 0.5}
	labels := []string{"0.1x", "1x", "10x"}
	if cfg.quickish() {
		scales = []float64{0.005, 0.01, 0.05}
	}
	if cfg.Tiny {
		scales = []float64{0.002, 0.004, 0.01}
	}
	t := &Table{
		ID:      "fig10b",
		Title:   "PDBench SPJ workload, runtime / Det-runtime, varying database size (2% uncertainty)",
		Headers: append([]string{"size"}, fig10Systems...),
	}
	for i, scale := range scales {
		d := buildPDBench(scale, 0.02, 1.0, cfg.Seed)
		totals, err := runPDBenchSystems(ctx, d, cfg.opts(core.Options{JoinCompression: 64}))
		if err != nil {
			return nil, err
		}
		row := []string{labels[i]}
		for _, sys := range fig10Systems {
			row = append(row, ratio(totals[sys], totals["Det"]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
