// Package synth generates the synthetic workloads of the paper's
// evaluation (Section 12.2-12.3): PDBench-style attribute-level
// uncertainty injection, the wide 100-attribute microbenchmark table, join
// workloads, and key-violation datasets whose uncertainty profiles match
// the real-world datasets of Figure 17 (the paper used the real datasets;
// these are synthetic stand-ins with the same uncertainty profiles).
package synth

import (
	"fmt"
	"math/rand"

	"github.com/audb/audb/internal/bag"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
	"github.com/audb/audb/internal/worlds"
)

// InjectConfig controls PDBench-style uncertainty injection.
type InjectConfig struct {
	// CellProb is the probability that an eligible cell becomes uncertain
	// (PDBench's "amount of uncertainty": 2%, 5%, 10%, 30%).
	CellProb float64
	// MaxAlts is the maximum number of alternatives per uncertain row
	// (PDBench uses up to 8).
	MaxAlts int
	// RangeFrac is the fraction of the column's domain that alternative
	// values may span around the original value; 1.0 reproduces PDBench's
	// worst case of alternatives across the whole domain.
	RangeFrac float64
	// EligibleCols restricts injection to the listed column indexes; nil
	// means every column except column 0 (the conventional key).
	EligibleCols []int
	// Seed drives the deterministic generator.
	Seed int64
}

// Inject replaces random cells of every relation with uncertain
// alternatives, producing a block-independent x-database. The first
// alternative of every block is the original tuple, so the original
// database is the natural selected-guess world.
func Inject(db bag.DB, cfg InjectConfig) worlds.XDB {
	if cfg.MaxAlts < 2 {
		cfg.MaxAlts = 2
	}
	if cfg.RangeFrac <= 0 {
		cfg.RangeFrac = 1.0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := worlds.XDB{}
	for name, rel := range db {
		out[name] = injectRelation(rel, cfg, rng)
	}
	return out
}

// colStats captures a column's observed domain.
type colStats struct {
	lo, hi   float64
	numeric  bool
	observed []types.Value
}

func statsOf(rel *bag.Relation) []colStats {
	stats := make([]colStats, rel.Schema.Arity())
	for c := range stats {
		stats[c].numeric = true
	}
	for _, t := range rel.Tuples {
		for c, v := range t {
			st := &stats[c]
			if !v.IsNumeric() {
				st.numeric = false
			}
			if st.numeric {
				f := v.AsFloat()
				if len(st.observed) == 0 || f < st.lo {
					st.lo = f
				}
				if len(st.observed) == 0 || f > st.hi {
					st.hi = f
				}
			}
			if len(st.observed) < 256 {
				st.observed = append(st.observed, v)
			}
		}
	}
	return stats
}

func injectRelation(rel *bag.Relation, cfg InjectConfig, rng *rand.Rand) *worlds.XRelation {
	out := worlds.NewXRelation(rel.Schema)
	stats := statsOf(rel)
	eligible := cfg.EligibleCols
	if eligible == nil {
		for c := 1; c < rel.Schema.Arity(); c++ {
			eligible = append(eligible, c)
		}
	}
	for ti, t := range rel.Tuples {
		_ = ti
		var uncertainCols []int
		for _, c := range eligible {
			if rng.Float64() < cfg.CellProb {
				uncertainCols = append(uncertainCols, c)
			}
		}
		for k := int64(0); k < rel.Counts[ti]; k++ {
			if len(uncertainCols) == 0 {
				out.AddCertain(t.Clone())
				continue
			}
			nalts := 2 + rng.Intn(cfg.MaxAlts-1)
			alts := make([]types.Tuple, 0, nalts)
			alts = append(alts, t.Clone())
			for a := 1; a < nalts; a++ {
				alt := t.Clone()
				for _, c := range uncertainCols {
					alt[c] = alternativeValue(t[c], &stats[c], cfg.RangeFrac, rng)
				}
				alts = append(alts, alt)
			}
			out.AddBlock(worlds.XTuple{Alts: alts})
		}
	}
	return out
}

// alternativeValue draws a replacement value within RangeFrac of the
// column domain around the original (numeric columns) or uniformly from
// the observed values (other columns).
func alternativeValue(orig types.Value, st *colStats, frac float64, rng *rand.Rand) types.Value {
	if st.numeric && st.hi > st.lo {
		width := (st.hi - st.lo) * frac
		center := orig.AsFloat()
		lo := center - width/2
		hi := center + width/2
		if lo < st.lo {
			lo = st.lo
		}
		if hi > st.hi {
			hi = st.hi
		}
		v := lo + rng.Float64()*(hi-lo)
		if orig.Kind() == types.KindInt {
			return types.Int(int64(v))
		}
		return types.Float(v)
	}
	if len(st.observed) > 0 {
		return st.observed[rng.Intn(len(st.observed))]
	}
	return orig
}

// WideTable generates the 100-attribute microbenchmark table (Section
// 12.2): `rows` tuples with uniform random integers in [1, domain].
func WideTable(rows, cols int, domain int64, seed int64) *bag.Relation {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]string, cols)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	rel := bag.New(schema.Schema{Attrs: attrs})
	for r := 0; r < rows; r++ {
		t := make(types.Tuple, cols)
		for c := range t {
			t[c] = types.Int(1 + rng.Int63n(domain))
		}
		rel.Add(t, 1)
	}
	return rel
}

// JoinPair generates the two join-microbenchmark tables (Figure 14/16):
// t1(a0, a1), t2(a0, a1) with `rows` tuples over [1, domain].
func JoinPair(rows int, domain int64, seed int64) (t1, t2 *bag.Relation) {
	rng := rand.New(rand.NewSource(seed))
	gen := func() *bag.Relation {
		rel := bag.New(schema.New("a0", "a1"))
		for r := 0; r < rows; r++ {
			rel.Add(types.Tuple{
				types.Int(1 + rng.Int63n(domain)),
				types.Int(1 + rng.Int63n(domain)),
			}, 1)
		}
		return rel
	}
	return gen(), gen()
}

// KeyViolationProfile describes a Figure 17 dataset: number of rows, the
// fraction of key groups with violations, and the average number of
// possibilities per violating group.
type KeyViolationProfile struct {
	Name        string
	Rows        int
	ViolFrac    float64 // fraction of keys with >1 tuple
	AvgChoices  float64 // alternatives per violated key
	ValueCols   int     // non-key attribute count
	StringCols  int     // of which this many are categorical
	ValueDomain int64
	Seed        int64
}

// Profiles matching the uncertainty statistics reported in Figure 17:
// Netflix (1.9% uncertain, 2.1 possibilities), Chicago Crimes (0.1%, 3.2),
// Medicare Healthcare (1.0%, 2.7). Row counts are scaled to in-memory
// sizes; the accuracy metrics depend on the uncertainty profile, not the
// raw volume.
var (
	NetflixProfile = KeyViolationProfile{
		Name: "netflix", Rows: 6000, ViolFrac: 0.019, AvgChoices: 2.1,
		ValueCols: 4, StringCols: 2, ValueDomain: 2020, Seed: 101,
	}
	CrimesProfile = KeyViolationProfile{
		Name: "crimes", Rows: 20000, ViolFrac: 0.001, AvgChoices: 3.2,
		ValueCols: 4, StringCols: 2, ValueDomain: 3000, Seed: 102,
	}
	HealthcareProfile = KeyViolationProfile{
		Name: "healthcare", Rows: 12000, ViolFrac: 0.010, AvgChoices: 2.7,
		ValueCols: 4, StringCols: 2, ValueDomain: 500, Seed: 103,
	}
)

// KeyViolationTable generates a relation with key violations matching the
// profile: schema (k, s0..s{StringCols-1}, v0..).
func KeyViolationTable(p KeyViolationProfile) *bag.Relation {
	rng := rand.New(rand.NewSource(p.Seed))
	attrs := []string{"k"}
	for i := 0; i < p.StringCols; i++ {
		attrs = append(attrs, fmt.Sprintf("s%d", i))
	}
	numCols := p.ValueCols - p.StringCols
	for i := 0; i < numCols; i++ {
		attrs = append(attrs, fmt.Sprintf("v%d", i))
	}
	rel := bag.New(schema.Schema{Attrs: attrs})
	// A realistic categorical domain (director names, districts, facility
	// names...) has dozens-to-thousands of values; 48 keeps group boxes
	// from trivially covering the whole domain.
	cats := make([]string, 48)
	for i := range cats {
		cats[i] = fmt.Sprintf("cat%02d", i)
	}
	base := func(key int64) types.Tuple {
		t := make(types.Tuple, len(attrs))
		t[0] = types.Int(key)
		for i := 0; i < p.StringCols; i++ {
			t[1+i] = types.String(cats[rng.Intn(len(cats))])
		}
		for i := 0; i < numCols; i++ {
			t[1+p.StringCols+i] = types.Int(1 + rng.Int63n(p.ValueDomain))
		}
		return t
	}
	for k := int64(0); k < int64(p.Rows); k++ {
		b := base(k)
		rel.Add(b, 1)
		if rng.Float64() < p.ViolFrac {
			// Violating key: extra conflicting versions (average
			// AvgChoices total). Real-world duplicates mostly agree —
			// each extra version perturbs one numeric column (± up to
			// 10% of the domain) and only occasionally a categorical one.
			extra := int(p.AvgChoices - 1 + rng.Float64())
			if extra < 1 {
				extra = 1
			}
			for e := 0; e < extra; e++ {
				dup := b.Clone()
				if numCols > 0 {
					c := 1 + p.StringCols + rng.Intn(numCols)
					delta := rng.Int63n(p.ValueDomain/10+1) - p.ValueDomain/20
					v := dup[c].AsInt() + delta
					if v < 1 {
						v = 1
					}
					dup[c] = types.Int(v)
				}
				if p.StringCols > 0 && rng.Float64() < 0.05 {
					// Categorical conflicts are typo-like: the variant is
					// lexicographically adjacent, not a random category.
					c := 1 + rng.Intn(p.StringCols)
					cur := dup[c].AsString()
					pos := 0
					for ci, cat := range cats {
						if cat == cur {
							pos = ci
							break
						}
					}
					step := 1 + rng.Intn(2)
					if rng.Intn(2) == 0 && pos >= step {
						pos -= step
					} else if pos+step < len(cats) {
						pos += step
					}
					dup[c] = types.String(cats[pos])
				}
				rel.Add(dup, 1)
			}
		}
	}
	return rel
}
