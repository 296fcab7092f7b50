package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"github.com/audb/audb"
	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/types"
)

// answer identifies a verified result: row count plus an order-independent
// digest of every tuple's bounds and multiplicity.
type answer struct {
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

// floatDigits is how many significant digits of a float bound enter the
// digest. The program sums the possible contributions of an aggregate in
// map order, so the low digits of a float upper bound differ from one
// execution to the next (observed: 1e-15 relative); six digits puts the
// chance of a rounding boundary falling inside that jitter below 1e-8 per
// value, while any real change of a bound still changes the digest.
const floatDigits = 6

func appendCanonical(buf []byte, v types.Value) []byte {
	if v.Kind() == types.KindFloat {
		return strconv.AppendFloat(append(buf, 'f'), v.AsFloat(), 'e', floatDigits-1, 64)
	}
	return v.AppendKey(buf)
}

// digest sums a per-tuple FNV-1a hash over the relation, so it does not
// depend on row order and needs no sort inside the measurement loop.
func digest(r *core.Relation) answer {
	var sum uint64
	var buf []byte
	n := 0
	_ = r.EachTuple(func(t core.Tuple) error {
		buf = buf[:0]
		for _, v := range t.Vals {
			buf = appendCanonical(buf, v.Lo)
			buf = appendCanonical(buf, v.SG)
			buf = appendCanonical(buf, v.Hi)
		}
		buf = strconv.AppendInt(buf, t.M.Lo, 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, t.M.SG, 10)
		buf = append(buf, '/')
		buf = strconv.AppendInt(buf, t.M.Hi, 10)
		h := fnv.New64a()
		h.Write(buf)
		sum += h.Sum64()
		n++
		return nil
	})
	return answer{Rows: n, Digest: strconv.FormatUint(sum, 16)}
}

// referenceSeed generates the content the two bound-tightness metrics are
// computed on, whatever --seed a run was given.
const referenceSeed = 0

// accuracy accumulates the two bound-tightness metrics: how wide the
// bounds of the answers are and how many answer rows are certain. They
// stop a speed-up from being bought with looser bounds. A cell's width is
// taken relative to the largest magnitude among its three values (at least
// 1), which keeps it in [0,2]: relative to the selected guess alone, a
// handful of cells with a guess near zero decide the mean.
//
// Both are computed on the answers over the reference content, not the
// run's own: on the run's content they follow the seed's draw of uncertain
// cells (a few dozen of them on short_adhoc) and move by 10% to 80% from
// seed to seed, which no bound could hold. On fixed content they repeat
// exactly, and any change to the bounds the program returns moves them.
type accuracy struct {
	widthSum          float64
	numericCells      int
	rows, certainRows int
}

func (a *accuracy) add(r *core.Relation) error {
	return r.EachTuple(func(t core.Tuple) error {
		a.rows++
		if t.M.Lo >= 1 {
			a.certainRows++
		}
		for _, v := range t.Vals {
			if !v.SG.IsNumeric() {
				continue
			}
			if !v.Lo.IsNumeric() || !v.Hi.IsNumeric() {
				return fmt.Errorf("result cell %s has an infinite bound; bound_width_rel cannot average it", v)
			}
			lo, sg, hi := v.Lo.AsFloat(), v.SG.AsFloat(), v.Hi.AsFloat()
			a.numericCells++
			a.widthSum += (hi - lo) / math.Max(math.Max(math.Abs(lo), math.Abs(hi)), math.Max(math.Abs(sg), 1))
		}
		return nil
	})
}

// referenceAccuracy loads the workload's reference content into a server
// of its own and accumulates the six answers.
func referenceAccuracy(ctx context.Context, w workload) (*accuracy, error) {
	d := generate(w, referenceSeed)
	in, err := startInstance()
	if err != nil {
		return nil, err
	}
	defer in.stop()
	if err := in.copyTables(ctx, d.base); err != nil {
		return nil, err
	}
	a := &accuracy{}
	for _, c := range classes {
		res, err := in.conn.Query(ctx, c.sql, queryOpts...)
		if err != nil {
			return nil, fmt.Errorf("reference content, %s: %w", c.name, err)
		}
		if err := a.add(res); err != nil {
			return nil, fmt.Errorf("reference content, %s: %w", c.name, err)
		}
	}
	return a, nil
}

// boundWidth is the mean relative width, kept to nine significant digits:
// the float upper bounds it averages carry the same execution-to-execution
// jitter in their last digits that the digest rounds away, and the metric
// has to repeat exactly from run to run.
func (a *accuracy) boundWidth() float64 {
	mean := a.widthSum / float64(a.numericCells)
	rounded, err := strconv.ParseFloat(strconv.FormatFloat(mean, 'e', 8, 64), 64)
	if err != nil {
		return mean // not reachable: FormatFloat's output always parses
	}
	return rounded
}

func (a *accuracy) certainFrac() float64 { return float64(a.certainRows) / float64(a.rows) }

// golden is testdata/golden.json: workload key → seed → class (with the
// ingest variant as "/n" suffix) → answer.
type golden map[string]map[string]map[string]answer

func goldenPath(dir string) string { return filepath.Join(dir, "testdata", "golden.json") }

func loadGolden(dir string) (golden, error) {
	g := golden{}
	data, err := os.ReadFile(goldenPath(dir))
	if err != nil {
		return nil, fmt.Errorf("golden answers: %w", err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden answers: %w", err)
	}
	return g, nil
}

func (g golden) save(dir string) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath(dir), append(data, '\n'), 0o644)
}

// verified is the outcome of the correctness gate: the answers the timed
// loop re-checks every op against.
type verified struct {
	// answers[variant][class index]; non-ingest workloads have one variant.
	answers [][]answer
	// goldenChecked reports whether a golden existed for this seed.
	goldenChecked bool
}

// gate runs every class once per variant and requires the remote result to
// equal the in-process reference executor on the same data and, where a
// golden is checked in for this seed, the golden too. It leaves the base
// content loaded.
func gate(ctx context.Context, in *instance, w workload, d *dataset, seed int64, env *environment) (*verified, error) {
	variants := 1
	if w.ingest {
		variants = len(d.variants)
	}
	v := &verified{answers: make([][]answer, variants)}
	seedKey := strconv.FormatInt(seed, 10)
	want, haveGolden := env.golden[w.goldenKey][seedKey]
	haveGolden = haveGolden && !env.updateGolden
	got := map[string]answer{}
	for vi := variants - 1; vi >= 0; vi-- { // end on variant 0, the base
		if w.ingest {
			if err := in.replaceTables(ctx, d.variants[vi]); err != nil {
				return nil, err
			}
		}
		row := make([]answer, len(classes))
		for ci, c := range classes {
			remote, err := in.conn.Query(ctx, c.sql, queryOpts...)
			if err != nil {
				return nil, fmt.Errorf("gate %s: remote: %w", c.name, err)
			}
			ref, err := in.srv.DB().QueryContext(ctx, c.sql, audb.WithExecMode(audb.ExecMaterialized), audb.WithWorkers(1))
			if err != nil {
				return nil, fmt.Errorf("gate %s: reference: %w", c.name, err)
			}
			row[ci] = digest(remote)
			if want := digest(ref); row[ci] != want {
				return nil, fmt.Errorf("gate %s: remote answer %+v differs from the in-process reference executor's %+v", c.name, row[ci], want)
			}
			key := c.name
			if w.ingest {
				key += "/" + strconv.Itoa(vi)
			}
			got[key] = row[ci]
			if haveGolden && want[key] != row[ci] {
				return nil, fmt.Errorf("gate %s: answer %+v differs from golden %+v (seed %d)", key, row[ci], want[key], seed)
			}
		}
		v.answers[vi] = row
	}
	v.goldenChecked = haveGolden
	if env.updateGolden {
		if env.golden[w.goldenKey] == nil {
			env.golden[w.goldenKey] = map[string]map[string]answer{}
		}
		env.golden[w.goldenKey][seedKey] = got
	}
	return v, nil
}
