package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/synth"
	"github.com/audb/audb/internal/tpch"
	"github.com/audb/audb/internal/translate"
	"github.com/audb/audb/internal/worlds"
)

// class is one op class: a SQL text sent ad hoc through client.Conn.Query.
// The same six texts run on every workload, so a class's latency moves
// between workloads only because the data (size, certainty) moves.
type class struct {
	name string
	sql  string
}

var classes = []class{
	// Selection plus arithmetic projection on the largest table: the
	// streaming chain (scan/select/project) and the largest result.
	{"scan", `SELECT l_orderkey, l_extendedprice * (1 - l_discount) AS net, l_quantity + 1 AS qty1 FROM lineitem WHERE l_quantity > 25`},
	{"agg", tpch.Queries["Q1"]},
	{"join", tpch.Queries["PB2"]},
	// Three-way join plus group-by: exercises cost-based reordering.
	{"mjoin", tpch.Queries["Q3"]},
	// The paper's non-monotone case. DiffRelations is quadratic in its
	// inputs, so both sides are filtered down to a window of the date
	// domain; the shipdate bound keeps the lineitems of the kept orders.
	{"diff", `SELECT o_orderkey FROM orders WHERE o_orderdate < 400 EXCEPT SELECT l_orderkey FROM lineitem WHERE l_quantity > 30 AND l_shipdate < 520`},
	// The second sort key makes ties at the cut-off practically impossible,
	// so the fused top-k and sort+limit keep the same ten rows.
	{"topk", `SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC, l_orderkey DESC LIMIT 10`},
}

// ingestVariants is how many pre-generated contents of lineitem+orders an
// ingest workload cycles through. Each cycle replaces both tables with the
// next variant, so the write side always sees changed content while every
// answer still has a reference verified before timing starts.
const ingestVariants = 4

// workload fixes one data shape and its sample minimums. Sizes are small
// because the driver allows about 35 s per run including set-up; the
// minimums (rounds per class, COPY rows and repetitions) are what keeps
// medians steady, so data shrinks before they do.
type workload struct {
	name string
	// scale is tpch.Config.Scale (1.0 = 60k lineitem rows). cellProb is
	// the share of all cells of a data-bearing table that are uncertain,
	// rangeFrac the share of the column domain an uncertain cell spans.
	scale, cellProb, rangeFrac float64
	// measuresOnly confines the uncertainty to the measure columns
	// (measureCols): keys, dates and flags stay certain, so those columns
	// are stored flat and the table as a whole sparse. Without it every
	// column but the key is eligible, and at these row counts every
	// eligible column holds some uncertain cell, which makes storage dense.
	measuresOnly bool
	// ingest makes every round start by COPY-replacing lineitem+orders.
	ingest bool
	// reconcile makes the traced run fail when its spans do not add up to
	// the in-process latency. It is set where execution dominates; on the
	// sub-millisecond workloads QueryContext's own bookkeeping is a share
	// of latency no layer span covers.
	reconcile bool
	// minRounds is the sample minimum per class: rounds run until both it
	// and the time box are met. One round is every class once.
	minRounds int
	// warmRounds are run inside setup_s, sized so set-up takes over 1 s.
	warmRounds int
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// copyRows and copyReps are the COPY sample minimums (both must hold).
	copyRows, copyReps int
	// microCalls is the repetition count of the per-layer front-end
	// micro-measurements (median of that many calls).
	microCalls int
	// goldenKey selects this workload's entries in testdata/golden.json.
	goldenKey string
}

var workloads = []workload{
	fullSize(workload{
		// 2% uncertain cells: sparse storage, vectorized expressions and certain-only kernels do the work.
		name:  "tpch_certain",
		scale: 0.15, cellProb: 0.02, rangeFrac: 0.05, measuresOnly: true, reconcile: true,
		minRounds: 100, warmRounds: 10,
	}),
	fullSize(workload{
		// 30% uncertain cells: dense triples, per-row fallback and the uncertain join quadrant; bypasses the certain path.
		name:  "tpch_uncertain",
		scale: 0.07, cellProb: 0.30, rangeFrac: 0.05, reconcile: true,
		minRounds: 100, warmRounds: 9,
	}),
	fullSize(workload{
		// 600-row tables: parse, optimize, cost, lower, session, admission and wire framing dominate; kernels idle.
		name:  "short_adhoc",
		scale: 0.01, cellProb: 0.02, rangeFrac: 0.05, measuresOnly: true,
		minRounds: 300, warmRounds: 130,
	}),
	fullSize(workload{
		// COPY-replace lineitem+orders then query them each cycle: read gains paid for at load time show up here.
		name:  "ingest_query",
		scale: 0.08, cellProb: 0.10, rangeFrac: 0.05, measuresOnly: true, ingest: true,
		minRounds: 100, warmRounds: 16,
	}),
}

// fullSize fills in what the full-size workloads share.
func fullSize(w workload) workload {
	w.setupReps = 3
	w.copyRows, w.copyReps = 300_000, 15
	w.microCalls = 200
	w.goldenKey = w.name
	return w
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to smoke-test size: same code paths, a few
// hundred rows, a handful of rounds.
func (w workload) tiny() workload {
	w.scale = 0.002
	w.minRounds, w.warmRounds, w.setupReps = 10, 1, 1
	w.copyRows, w.copyReps = 1000, 3
	w.microCalls = 5
	w.reconcile = false // sub-millisecond ops: see the field's comment
	w.goldenKey = "tiny/" + w.name
	return w
}

// table is one generated relation as dense tuples ready for COPY.
type table struct {
	name   string
	cols   []string
	tuples []core.Tuple
}

// dataset is everything a run loads, generated from the seed before any
// timing. base holds all tables sorted by name; variants (ingest only)
// hold alternative contents of lineitem and orders, variants[0] being the
// base content.
type dataset struct {
	base     []table
	variants [][]table
	// lineitemX is lineitem before translation, kept for the
	// translate.xdb_ns_per_row layer metric.
	lineitemX *worlds.XRelation
	cells     int // rows × columns over base
}

func (d *dataset) table(name string) *table {
	for i := range d.base {
		if d.base[i].name == name {
			return &d.base[i]
		}
	}
	return nil
}

// measureCols are the columns a measuresOnly workload makes uncertain.
var measureCols = map[string][]string{
	"lineitem": {"l_discount", "l_tax"},
	"orders":   {"o_totalprice"},
	"customer": {"c_acctbal"},
	"supplier": {"s_acctbal"},
}

// inject is tpch.InjectPDBench with a choice of eligible columns: region
// and nation stay certain, every other table gets PDBench-style
// alternatives in cellProb of its cells.
func inject(det bag.DB, w workload, seed int64) worlds.XDB {
	out := worlds.XDB{}
	for name, rel := range det {
		cfg := synth.InjectConfig{CellProb: w.cellProb, MaxAlts: 8, RangeFrac: w.rangeFrac, Seed: seed + int64(len(name))}
		switch {
		case name == "region" || name == "nation":
			cfg.CellProb = 0
		case w.measuresOnly:
			for _, col := range measureCols[name] {
				cfg.EligibleCols = append(cfg.EligibleCols, rel.Schema.IndexOf(col))
			}
			// Same share of the table's cells, concentrated in fewer columns.
			cfg.CellProb = math.Min(1, w.cellProb*float64(rel.Schema.Arity())/float64(len(cfg.EligibleCols)))
		}
		out[name] = synth.Inject(bag.DB{name: rel}, cfg)[name]
	}
	return out
}

// generate builds a run's inputs. The deterministic TPC-H base is the same
// for every seed (variant v of an ingest workload has its own); the seed
// decides which cells are uncertain and what their alternatives are. Row
// counts and the selectivity of every filter on a certain column therefore
// stay put across seeds — with a few thousand rows their sampling noise
// would otherwise move the quadratic difference by 15% between seeds, a
// spread no amount of repetition removes — while the uncertainty, the
// thing the system is about, changes with every seed.
func generate(w workload, seed int64) *dataset {
	gen := func(variant int64) (map[string]table, worlds.XDB) {
		det := tpch.Generate(tpch.Config{Scale: w.scale, Seed: variant})
		x := inject(det, w, seed*1000+variant*7)
		out := map[string]table{}
		for name, xr := range x {
			rel := translate.XDB(xr)
			out[name] = table{name: name, cols: rel.Schema.Attrs, tuples: rel.Dense().Tuples}
		}
		return out, x
	}
	tabs, x := gen(0)
	d := &dataset{lineitemX: x["lineitem"]}
	for _, t := range tabs {
		d.base = append(d.base, t)
		d.cells += len(t.tuples) * len(t.cols)
	}
	sort.Slice(d.base, func(i, j int) bool { return d.base[i].name < d.base[j].name })
	if w.ingest {
		d.variants = append(d.variants, []table{tabs["lineitem"], tabs["orders"]})
		for v := int64(1); v < ingestVariants; v++ {
			vt, _ := gen(v)
			d.variants = append(d.variants, []table{vt["lineitem"], vt["orders"]})
		}
	}
	return d
}
