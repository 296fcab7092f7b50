// Package stats computes catalog statistics over AU-relations for the
// cost-based planner. A TableStats summarizes one range relation: stored
// tuple counts, the multiplicity mass (certain / selected-guess /
// possible), and per-column summaries of the selected-guess values (min,
// max, estimated number of distinct values) together with two measures of
// attribute-level uncertainty — the mean bound width and the certain
// fraction — that the cardinality estimator (internal/opt) uses to widen
// selectivities so uncertain predicates never under-estimate.
//
// Collection is one O(rows × columns) pass. Distinct values are counted
// exactly up to a cap and by adaptive sampling beyond it (hashes are kept
// only while they fall under a shrinking threshold; the estimate scales
// the surviving count back up), so collection memory stays bounded on any
// table size.
//
// The Registry caches statistics per registered table, collects them
// lazily on first use, and invalidates them when a table is dropped or
// replaced; it implements core.CatalogObserver so a core.Catalog keeps it
// in sync, and the Provider interface consumed by the planner.
package stats

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// ColStats summarizes one column of a range relation. All value-level
// measures are over the selected-guess components; the width and certain
// fraction describe the [lb, ub] bounds around them.
type ColStats struct {
	// Name is the attribute name.
	Name string
	// MinSG/MaxSG bound the selected-guess values (types.Compare order).
	// Null for an empty relation.
	MinSG, MaxSG types.Value
	// NDV is the estimated number of distinct selected-guess values
	// (exact below the collection cap).
	NDV int64
	// Numeric reports whether every non-null selected-guess value is
	// numeric, i.e. MeanWidth and the numeric Min/Max are meaningful.
	Numeric bool
	// MeanWidth is the mean numeric bound width ub-lb across all rows
	// (certain values contribute 0; an infinite bound contributes the
	// column's selected-guess spread). 0 for non-numeric columns.
	MeanWidth float64
	// CertainFrac is the fraction of rows whose value is certain
	// (lb = sg = ub). 1 for an empty relation.
	CertainFrac float64
}

// TableStats summarizes one registered relation.
type TableStats struct {
	// Table is the name the relation was registered under.
	Table string
	// Rows is the number of stored AU-tuples.
	Rows int64
	// CertainRows/SGRows/PossibleRows are the total lower-bound,
	// selected-guess and upper-bound multiplicities.
	CertainRows, SGRows, PossibleRows int64
	// CertainTupleFrac is the fraction of stored tuples all of whose
	// attribute values are certain — exactly the tuples the hybrid join
	// can hash; the remainder pays the quadratic overlap path.
	CertainTupleFrac float64
	// Cols holds the per-column summaries in schema order.
	Cols []ColStats
	// Storage is the relation's storage representation at collection time
	// (dense row-major or sparse columnar).
	Storage core.Repr
	// FlatCols is the number of columns stored as flat value slices;
	// 0 for a dense relation.
	FlatCols int
	// MultFlat reports whether row multiplicities are stored as single
	// certain counts; false for a dense relation.
	MultFlat bool
}

// distinctCap bounds the exact distinct-counting set per column; beyond
// it the counter switches to adaptive sampling (halving the kept-hash
// threshold until the set fits) and Estimate scales back up.
const distinctCap = 4096

// distinctCounter estimates the number of distinct 64-bit hashes fed to
// add, exactly while fewer than distinctCap survive.
type distinctCounter struct {
	set   map[uint64]struct{}
	shift uint
}

// mix64 is a 64-bit finalizer (the murmur3 fmix64 constants): FNV sums
// alone are not uniform enough in their high bits for threshold sampling.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (d *distinctCounter) add(h uint64) {
	h = mix64(h)
	if d.set == nil {
		d.set = make(map[uint64]struct{})
	}
	if d.shift > 0 && h>>(64-d.shift) != 0 {
		return
	}
	d.set[h] = struct{}{}
	for len(d.set) > distinctCap {
		d.shift++
		for k := range d.set {
			if k>>(64-d.shift) != 0 {
				delete(d.set, k)
			}
		}
	}
}

func (d *distinctCounter) estimate() int64 {
	return int64(len(d.set)) << d.shift
}

// colAcc accumulates one column's statistics during the collection pass.
type colAcc struct {
	dc         distinctCounter
	min, max   types.Value
	any        bool
	allNumeric bool
	widthSum   float64 // finite numeric widths
	infWidths  int64   // rows whose bound width is unbounded
	certain    int64
}

// Collector accumulates table statistics incrementally, one tuple at a
// time, so streaming ingest (COPY) can collect statistics in the same pass
// that builds the relation instead of re-scanning it afterwards. Add never
// retains its argument; feeding it a reused scratch tuple is safe.
type Collector struct {
	sch        schema.Schema
	ts         *TableStats
	accs       []colAcc
	h          hash.Hash64
	scratch    []byte
	certTuples int64
}

// NewCollector starts a collection pass for a table with the given schema.
func NewCollector(table string, sch schema.Schema) *Collector {
	c := &Collector{
		sch:  sch,
		ts:   &TableStats{Table: table, CertainTupleFrac: 1},
		accs: make([]colAcc, sch.Arity()),
		h:    fnv.New64a(),
	}
	for i := range c.accs {
		c.accs[i].allNumeric = true
	}
	return c
}

// Add folds one tuple into the running statistics.
func (c *Collector) Add(t core.Tuple) {
	ts := c.ts
	ts.Rows++
	ts.CertainRows += t.M.Lo
	ts.SGRows += t.M.SG
	ts.PossibleRows += t.M.Hi
	if t.Vals.IsCertain() {
		c.certTuples++
	}
	for i := 0; i < len(c.accs) && i < len(t.Vals); i++ {
		a := &c.accs[i]
		v := t.Vals[i]
		sg := v.SG
		if !a.any {
			a.min, a.max = sg, sg
			a.any = true
		} else {
			a.min = types.Min(a.min, sg)
			a.max = types.Max(a.max, sg)
		}
		if !sg.IsNull() && !sg.IsNumeric() {
			a.allNumeric = false
		}
		if v.IsCertain() {
			a.certain++
		} else if v.Lo.IsNumeric() && v.Hi.IsNumeric() {
			a.widthSum += v.Hi.AsFloat() - v.Lo.AsFloat()
		} else {
			a.infWidths++
		}
		c.h.Reset()
		c.scratch = sg.AppendKey(c.scratch[:0])
		c.h.Write(c.scratch)
		a.dc.add(c.h.Sum64())
	}
}

// Finish computes the final statistics. The collector must not be used
// afterwards.
func (c *Collector) Finish() *TableStats {
	ts := c.ts
	if ts.Rows > 0 {
		ts.CertainTupleFrac = float64(c.certTuples) / float64(ts.Rows)
	}
	ts.Cols = make([]ColStats, len(c.accs))
	for i := range ts.Cols {
		a := &c.accs[i]
		cs := ColStats{Name: c.sch.Attrs[i], CertainFrac: 1}
		if a.any {
			cs.MinSG, cs.MaxSG = a.min, a.max
			cs.NDV = a.dc.estimate()
			cs.Numeric = a.allNumeric
			cs.CertainFrac = float64(a.certain) / float64(ts.Rows)
			if cs.Numeric {
				// Unbounded widths contribute the selected-guess spread:
				// the widest window the estimator will ever consider.
				spread := 0.0
				if a.min.IsNumeric() && a.max.IsNumeric() {
					spread = a.max.AsFloat() - a.min.AsFloat()
				}
				cs.MeanWidth = (a.widthSum + float64(a.infWidths)*spread) / float64(ts.Rows)
			}
		} else {
			cs.MinSG, cs.MaxSG = types.Null(), types.Null()
		}
		ts.Cols[i] = cs
	}
	return ts
}

// SetStorage records the storage representation of the collected relation
// the way Collect does, for callers that finish a collection against a
// relation built elsewhere (COPY ingest).
func (ts *TableStats) SetStorage(rel *core.Relation) {
	ts.Storage, ts.FlatCols, ts.MultFlat = rel.StorageDetail()
}

// Collect computes the statistics of rel in one pass over a pinned view
// (core.Relation.View), so rows appended meanwhile are left out, as a
// query started then would leave them out. Both storage representations
// are supported.
func Collect(table string, rel *core.Relation) *TableStats {
	rel = rel.View()
	c := NewCollector(table, rel.Schema)
	// EachTuple may reuse a scratch tuple; Add never retains it. The
	// callback cannot fail, so EachTuple cannot either.
	_ = rel.EachTuple(func(t core.Tuple) error {
		c.Add(t)
		return nil
	})
	ts := c.Finish()
	ts.SetStorage(rel)
	return ts
}

// String renders the statistics the way audbsh \stats prints them.
func (t *TableStats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "table %s: %d rows (certain %d, sg %d, possible %d), %.1f%% certain tuples\n",
		t.Table, t.Rows, t.CertainRows, t.SGRows, t.PossibleRows, 100*t.CertainTupleFrac)
	if t.Storage == core.ReprSparse {
		mult := "triple"
		if t.MultFlat {
			mult = "flat"
		}
		fmt.Fprintf(&sb, "storage: sparse (%d/%d flat columns, %s multiplicities)\n",
			t.FlatCols, len(t.Cols), mult)
	} else {
		sb.WriteString("storage: dense\n")
	}
	w := len("column")
	for _, c := range t.Cols {
		if len(c.Name) > w {
			w = len(c.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s  %-8s %-10s %-10s %-10s %s\n", w, "column", "ndv", "min", "max", "width", "certain")
	for _, c := range t.Cols {
		width := "-"
		if c.Numeric {
			width = fmt.Sprintf("%.2f", c.MeanWidth)
		}
		fmt.Fprintf(&sb, "%-*s  %-8d %-10s %-10s %-10s %.1f%%\n",
			w, c.Name, c.NDV, c.MinSG, c.MaxSG, width, 100*c.CertainFrac)
	}
	return sb.String()
}
