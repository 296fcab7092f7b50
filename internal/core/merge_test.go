package core

import (
	"math"
	"runtime"
	"testing"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// oracleMerge is the merge as it was before it reused a key buffer: one
// fresh Key() string per row. Merge must match it row for row.
func oracleMerge(r *Relation) *Relation {
	r.densifyInPlace()
	idx := map[string]int{}
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		k := t.Vals.Key()
		if j, ok := idx[k]; ok {
			out[j].M = out[j].M.Add(t.M)
			continue
		}
		idx[k] = len(out)
		out = append(out, t)
	}
	r.Tuples = out
	return r
}

// keyOf is the key encoding of vs, as a string value: its bytes look like
// the key of another row.
func keyOf(vs ...types.Value) types.Value {
	var b []byte
	for _, v := range vs {
		b = v.AppendKey(b)
	}
	return types.String(string(b))
}

// mergeAlphabet is the value domain of decodeMergeInput: groups of values
// that compare equal but are stored differently (3 and 3.0; -0.0, 0 and
// 0.0; three NaN payloads), strings whose bytes are key encodings, and
// the sentinels.
var mergeAlphabet = []types.Value{
	types.Int(3), types.Float(3), types.Float(math.Copysign(0, -1)), types.Int(0),
	types.Float(0), types.Float(math.NaN()), types.Float(math.Float64frombits(0x7ff0000000000001)), types.Float(math.Float64frombits(0xfff8000000000000)),
	keyOf(types.Int(3)), keyOf(types.Int(0), types.Int(3)), types.String(""), types.Null(),
	types.NegInf(), types.PosInf(), types.Float(2.5), types.Bool(true),
}

// decodeMergeInput turns bytes into one relation of arity 0–3. Every
// tuple takes one byte per attribute (low four bits pick the value; bit 4
// makes it a triple, whose other two corners come from a further byte)
// and a multiplicity byte (bit 7 makes it certain).
func decodeMergeInput(data []byte) *Relation {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	arity := int(next() % 4)
	r := New(schema.New([]string{"a", "b", "c"}[:arity]...))
	for len(data) > 0 {
		vals := make(rangeval.Tuple, arity)
		for i := range vals {
			x := next()
			v := mergeAlphabet[x&15]
			vals[i] = rangeval.Certain(v)
			if x&16 != 0 {
				y := next()
				lo, hi := mergeAlphabet[y&15], mergeAlphabet[y>>4]
				if types.Compare(lo, hi) > 0 {
					lo, hi = hi, lo
				}
				vals[i] = rangeval.New(types.Min(lo, v), v, types.Max(hi, v))
			}
		}
		m := next()
		mult := Mult{Lo: int64(m & 1), SG: int64(m&1 + m>>1&1), Hi: int64(m&1 + m>>1&1 + m>>2&3)}
		if m&128 != 0 {
			n := int64(1 + m>>3&3)
			mult = Mult{n, n, n}
		}
		r.Add(Tuple{Vals: vals, M: mult})
	}
	return r
}

// checkMerge asserts that Merge keeps exactly the rows oracleMerge keeps
// (the same first occurrences, by identity), in its order, with its sums.
func checkMerge(t *testing.T, in *Relation) *Relation {
	t.Helper()
	want := oracleMerge(in.ShallowClone())
	got := in.ShallowClone().Merge()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("merged %d rows, oracle %d\ninput:\n%s\ngot:\n%s\nwant:\n%s", len(got.Tuples), len(want.Tuples), in, got, want)
	}
	for i, g := range got.Tuples {
		w := want.Tuples[i]
		same := len(g.Vals) == len(w.Vals) && (len(g.Vals) == 0 || &g.Vals[0] == &w.Vals[0])
		if !same || g.M != w.M {
			t.Fatalf("row %d: got %s, oracle %s\ninput:\n%s", i, g, w, in)
		}
	}
	return got
}

// TestMergeMatchesOracle: the buffered merge agrees with the string-key
// oracle where keys are subtle, and merges exactly the Compare-equal
// values.
func TestMergeMatchesOracle(t *testing.T) {
	tup := func(m Mult, vs ...rangeval.V) Tuple { return Tuple{Vals: vs, M: m} }
	pt := func(v types.Value) rangeval.V { return rangeval.Certain(v) }
	negZero := types.Float(math.Copysign(0, -1))
	cases := []struct {
		name string
		rows []Tuple
		want int // merged rows
	}{
		{"3 and 3.0", []Tuple{tup(One, pt(types.Int(3))), tup(Mult{0, 1, 2}, pt(types.Float(3)))}, 1},
		{"-0.0, 0 and 0.0", []Tuple{tup(One, pt(negZero)), tup(One, pt(types.Int(0))), tup(One, pt(types.Float(0)))}, 1},
		{"NaN payloads", []Tuple{
			tup(One, pt(types.Float(math.NaN()))),
			tup(One, pt(types.Float(math.Float64frombits(0x7ff0000000000001)))),
			tup(One, pt(types.Float(math.Float64frombits(0xfff8000000000000)))),
		}, 1},
		{"key-like strings", []Tuple{
			tup(One, pt(types.Int(0)), pt(types.Int(3))),
			tup(One, pt(keyOf(types.Int(0))), pt(keyOf(types.Int(3)))),
			tup(One, pt(keyOf(types.Int(0), types.Int(3))), pt(types.String(""))),
			tup(One, pt(types.String("")), pt(keyOf(types.Int(0), types.Int(3)))),
		}, 4},
		{"point vs triple", []Tuple{
			tup(One, pt(types.Int(3))),
			tup(One, rangeval.New(types.Int(2), types.Int(3), types.Int(4))),
			tup(One, rangeval.New(types.Float(3), types.Int(3), types.Float(3))),
			tup(One, rangeval.New(types.Int(2), types.Float(3), types.Float(4))),
		}, 2},
		{"certain and uncertain multiplicities", []Tuple{
			tup(Mult{2, 2, 2}, pt(types.Int(1))), tup(Mult{0, 0, 3}, pt(types.Int(1))),
			tup(Mult{1, 2, 2}, pt(types.Int(2))), tup(Mult{5, 5, 5}, pt(types.Int(2))),
		}, 2},
		{"arity 0", []Tuple{tup(One), tup(Mult{0, 1, 4})}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := New(schema.New([]string{"a", "b"}[:len(c.rows[0].Vals)]...))
			for _, row := range c.rows {
				r.Add(row)
			}
			if got := checkMerge(t, r); len(got.Tuples) != c.want {
				t.Fatalf("merged to %d rows, want %d:\n%s", len(got.Tuples), c.want, got)
			}
		})
	}
}

// FuzzMerge checks Merge against oracleMerge on relations decoded from
// arbitrary bytes. Seeds are under testdata/fuzz/FuzzMerge.
//
//	go test ./internal/core -run='^$' -fuzz FuzzMerge -fuzztime 30s
func FuzzMerge(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMerge(t, decodeMergeInput(data))
	})
}

// mergeAllocs is the fewest heap objects one Merge of a fresh copy of
// rows allocates, over five runs. The copies are made outside the
// measured region.
func mergeAllocs(rows []Tuple) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		r := New(schema.New("a", "b"))
		r.Tuples = append([]Tuple(nil), rows...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.Merge()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestMergeAllocatesPerDistinctRow: a merge allocates per kept row, not
// per input row. Merging 1,000 and 4,000 copies of one row allocates the
// same count, and merging distinct rows at most one object (its key) per
// row plus a constant.
func TestMergeAllocatesPerDistinctRow(t *testing.T) {
	rows := func(n, distinct int) []Tuple {
		out := make([]Tuple, n)
		for i := range out {
			k := int64(i % distinct)
			out[i] = Tuple{Vals: rangeval.Tuple{civ(k), rangeval.New(types.Float(0), types.Float(float64(k)/2), types.Float(1e9))}, M: Mult{0, 1, 2}}
		}
		return out
	}
	if a, b := mergeAllocs(rows(1000, 1)), mergeAllocs(rows(4000, 1)); a != b {
		t.Errorf("merging 1,000 and 4,000 duplicate rows allocated %d and %d objects", a, b)
	}
	const slack = 64
	for _, n := range []int{1000, 4000} {
		if got := mergeAllocs(rows(n, n)); got > uint64(n)+slack {
			t.Errorf("merging %d distinct rows allocated %d objects, want at most %d", n, got, n+slack)
		}
	}
}
