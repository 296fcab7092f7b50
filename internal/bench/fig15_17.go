package bench

import (
	"context"
	"fmt"
	"math/rand"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/baselines"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/metrics"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/synth"
	"github.com/audb/audb/internal/translate"
	"github.com/audb/audb/internal/worlds"
)

// Fig15 reproduces Figures 15a/15b: over-grouping percentage and
// aggregation-range over-estimation of AU-DB aggregation against exact
// per-group bounds, varying the fraction of uncertain tuples and the
// relative size of attribute ranges.
func Fig15(ctx context.Context, cfg Config) (*Table, error) {
	rows := cfg.size(5000, 1000)
	t := &Table{
		ID:      "fig15",
		Title:   "aggregation accuracy: over-grouping (15a) and range over-estimation (15b)",
		Headers: []string{"uncertainty", "range/domain", "over-grouping %", "range factor"},
		Notes:   []string{fmt.Sprintf("%d rows, sum(v) group by g, 10 alternatives per uncertain tuple", rows)},
	}
	uncs := []float64{0.02, 0.03, 0.05}
	fracs := []float64{0.01, 0.02, 0.05, 0.10}
	if cfg.Tiny {
		uncs = []float64{0.02, 0.05}
		fracs = []float64{0.01, 0.10}
	}
	for _, unc := range uncs {
		for _, frac := range fracs {
			det := bag.DB{"t": synth.WideTable(rows, 2, 1000, cfg.Seed)}
			x := synth.Inject(det, synth.InjectConfig{
				CellProb: unc, MaxAlts: 8, RangeFrac: frac,
				EligibleCols: []int{0, 1}, Seed: cfg.Seed + int64(frac*1000),
			})
			au := translate.XDB(x["t"])
			over := metrics.OverGrouping(au, []int{0})
			plan := &ra.Agg{
				Child:   &ra.Scan{Table: "t"},
				GroupBy: []int{0},
				Aggs:    []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(1, "v"), Name: "s"}},
			}
			res, err := core.Exec(ctx, plan, core.DB{"t": au}, cfg.opts(core.Options{}))
			if err != nil {
				return nil, err
			}
			exact := metrics.ExactGroupSumBounds(x["t"], 0, 1)
			factor := metrics.RangeOverEstimation(res, []int{0}, 1, exact)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f%%", unc*100),
				fmt.Sprintf("%.0f%%", frac*100),
				fmt.Sprintf("%.1f", over),
				fmt.Sprintf("%.2f", factor),
			})
		}
	}
	return t, nil
}

// keyViolationX converts a key-violating relation into a block-independent
// x-relation (one block per key, alternatives = the conflicting tuples),
// the input representation for Trio and MCDB in the Figure 17 experiment.
func keyViolationX(rel *bag.Relation, keyCol int) *worlds.XRelation {
	groups := map[string][]int{}
	var order []string
	for i, t := range rel.Tuples {
		k := t.KeyOn([]int{keyCol})
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := worlds.NewXRelation(rel.Schema)
	for _, k := range order {
		idxs := groups[k]
		blk := worlds.XTuple{}
		for _, i := range idxs {
			blk.Alts = append(blk.Alts, rel.Tuples[i])
		}
		out.AddBlock(blk)
	}
	return out
}

// Fig17 reproduces the real-world-data table (Figure 17) on synthetic
// datasets matching the published uncertainty profiles (the paper used
// the real datasets; these are synthetic stand-ins): runtime plus accuracy against (approximate) ground
// truth for AU-DB, Trio, MCDB and UA-DB.
func Fig17(ctx context.Context, cfg Config) (*Table, error) {
	profiles := []synth.KeyViolationProfile{
		synth.NetflixProfile, synth.CrimesProfile, synth.HealthcareProfile,
	}
	t := &Table{
		ID:    "fig17",
		Title: "key-repaired datasets: runtime and accuracy",
		Headers: []string{"dataset", "query", "system", "time(s)",
			"cert.recall", "bounds(min..max)", "poss.by-key", "poss.by-val"},
		Notes: []string{
			"datasets synthesized to the uncertainty profiles of Figure 17 (see internal/synth)",
			"ground truth: exact possible answers (monotone expansion); certain answers from 25 sampled repairs",
		},
	}
	for _, p := range profiles {
		if cfg.quickish() {
			p.Rows /= 10
		}
		if cfg.Tiny {
			p.Rows /= 4
		}
		rel := synth.KeyViolationTable(p)
		x := keyViolationX(rel, 0)
		au := translate.KeyRepair(rel, []int{0})
		xdb := worlds.XDB{"t": x}
		audb := core.DB{"t": au}
		ua := baselines.UADBFromX(xdb)

		if err := fig17SPJ(ctx, t, p.Name, rel, xdb, audb, ua, cfg); err != nil {
			return nil, err
		}
		if err := fig17GB(ctx, t, p.Name, x, xdb, audb, cfg); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// fig17SPJ runs the selection query of the experiment on every system.
func fig17SPJ(ctx context.Context, t *Table, name string, rel *bag.Relation, xdb worlds.XDB, audb core.DB, ua *baselines.UADB, cfg Config) error {
	threshold := expr.CInt(200)
	plan := &ra.Select{
		Child: &ra.Scan{Table: "t"},
		Pred:  expr.Lt(expr.Col(3, "v0"), threshold),
	}
	// Ground truth: possible answers over the expanded relation
	// (monotone query); certain answers from sampled repairs.
	possible, err := bag.Exec(ctx, plan, bag.DB{"t": rel})
	if err != nil {
		return err
	}
	certain, err := sampledCertain(ctx, plan, xdb, 25, cfg.Seed)
	if err != nil {
		return err
	}

	var auRes *core.Relation
	dt, err := timeIt(func() error {
		r, e := core.Exec(ctx, plan, audb, cfg.opts(core.Options{}))
		auRes = r
		return e
	})
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{name, "SPJ", "AU-DB", secs(dt),
		fmt.Sprintf("%.0f%%", 100*metrics.CertainRecall(auRes, certain)),
		"1.0",
		fmt.Sprintf("%.0f%%", 100*metrics.PossibleRecallByKey(auRes, possible, []int{0})),
		fmt.Sprintf("%.0f%%", 100*metrics.PossibleRecall(auRes, possible)),
	})

	dt, err = timeIt(func() error { _, _, e := baselines.ExecTrioSPJ(plan, xdb); return e })
	if err != nil {
		return err
	}
	tCert, tPoss, err := baselines.ExecTrioSPJ(plan, xdb)
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{name, "SPJ", "Trio", secs(dt),
		recallOfBag(tCert, certain), "1.0",
		recallByKeyOfBag(tPoss, possible), recallOfBag(tPoss, possible),
	})

	var mres *baselines.MCDBResult
	dt, err = timeIt(func() error {
		r, e := baselines.ExecMCDB(ctx, plan, xdb, 10, cfg.Seed)
		mres = r
		return e
	})
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{name, "SPJ", "MCDB", secs(dt),
		"n/a", "1.0",
		recallByKeyOfBag(mres.PossibleTuples(), possible), recallOfBag(mres.PossibleTuples(), possible),
	})

	var uaRes *baselines.UADBResult
	dt, err = timeIt(func() error {
		r, e := baselines.ExecUADB(ctx, plan, ua)
		uaRes = r
		return e
	})
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{name, "SPJ", "UA-DB", secs(dt),
		recallOfBag(uaRes.Lower, certain), "n/a",
		recallByKeyOfBag(uaRes.SG, possible), recallOfBag(uaRes.SG, possible),
	})
	return nil
}

// fig17GB runs the grouped aggregation query.
func fig17GB(ctx context.Context, t *Table, name string, x *worlds.XRelation, xdb worlds.XDB, audb core.DB, cfg Config) error {
	plan := &ra.Agg{
		Child:   &ra.Scan{Table: "t"},
		GroupBy: []int{1}, // s0 (categorical)
		Aggs:    []ra.AggSpec{{Fn: ra.AggSum, Arg: expr.Col(3, "v0"), Name: "s"}},
	}
	exact := metrics.ExactGroupSumBounds(x, 1, 3)

	var auRes *core.Relation
	dt, err := timeIt(func() error {
		r, e := core.Exec(ctx, plan, audb, cfg.opts(core.Options{}))
		auRes = r
		return e
	})
	if err != nil {
		return err
	}
	st := metrics.TightnessOf(auRes, []int{0}, 1, exact)
	t.Rows = append(t.Rows, []string{name, "GB", "AU-DB", secs(dt),
		"100%", fmt.Sprintf("%.1f..%.1f", st.Min, st.Max), "100%", "100%",
	})

	dt, err = timeIt(func() error {
		_, e := baselines.ExecTrioAgg(&ra.Scan{Table: "t"}, xdb, []int{1},
			ra.AggSpec{Fn: ra.AggSum, Arg: expr.Col(3, "v0"), Name: "s"})
		return e
	})
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{name, "GB", "Trio", secs(dt), "100%", "1.0", "100%", "100%"})

	dt, err = timeIt(func() error { _, e := baselines.ExecMCDB(ctx, plan, xdb, 10, cfg.Seed); return e })
	if err != nil {
		return err
	}
	t.Rows = append(t.Rows, []string{name, "GB", "MCDB", secs(dt), "n/a", "<1 (sampled)", "100%", "~0%"})
	return nil
}

// sampledCertain approximates the certain answers by intersecting the
// query results of sampled worlds.
func sampledCertain(ctx context.Context, plan ra.Node, xdb worlds.XDB, samples int, seed int64) (*bag.Relation, error) {
	rng := rand.New(rand.NewSource(seed))
	var acc *bag.Relation
	for i := 0; i < samples; i++ {
		res, err := bag.Exec(ctx, plan, xdb.Sample(rng))
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = res.Clone().Merge()
			continue
		}
		next := bag.New(acc.Schema)
		m := res.Clone().Merge()
		for j, tup := range acc.Tuples {
			if c := m.Count(tup); c > 0 {
				if c < acc.Counts[j] {
					next.Add(tup, c)
				} else {
					next.Add(tup, acc.Counts[j])
				}
			}
		}
		acc = next
	}
	return acc, nil
}

// recallOfBag: fraction of ground tuples present in got.
func recallOfBag(got, ground *bag.Relation) string {
	if ground.Len() == 0 {
		return "100%"
	}
	hit := 0
	for _, tup := range ground.Tuples {
		if got.Count(tup) > 0 {
			hit++
		}
	}
	return fmt.Sprintf("%.0f%%", 100*float64(hit)/float64(ground.Len()))
}

// recallByKeyOfBag groups ground tuples by their first column.
func recallByKeyOfBag(got, ground *bag.Relation) string {
	if ground.Len() == 0 {
		return "100%"
	}
	covered := map[string]bool{}
	for _, tup := range ground.Tuples {
		k := tup.KeyOn([]int{0})
		if covered[k] {
			continue
		}
		if got.Count(tup) > 0 {
			covered[k] = true
		} else if _, seen := covered[k]; !seen {
			covered[k] = false
		}
	}
	hit := 0
	for _, ok := range covered {
		if ok {
			hit++
		}
	}
	return fmt.Sprintf("%.0f%%", 100*float64(hit)/float64(len(covered)))
}
