package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/audb/audb/internal/ctxpoll"
	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/types"
)

// aggKeyAlphabet is the group-by domain of decodeAggInput: few enough
// values that keys repeat, with -0 against 0, 1 against 1.0, NaN, null,
// a string and both infinities, so boxes can reach every kind.
var aggKeyAlphabet = []types.Value{
	types.Int(0), types.Int(1), types.Int(2), types.Float(math.Copysign(0, -1)),
	types.Float(0), types.Float(1), types.Float(math.NaN()), types.Int(3),
	types.String("k"), types.Null(), types.Float(0.5), types.Int(-1),
	types.Int(4), types.NegInf(), types.Int(6), types.PosInf(),
}

// aggMeasureAlphabet is the argument domain: ints, floats, -0, NaN, null,
// and (only where the header allows them) a string and both infinity
// sentinels, which make sum fail.
var aggMeasureAlphabet = []types.Value{
	types.Int(0), types.Int(1), types.Int(-2), types.Int(7),
	types.Float(math.Copysign(0, -1)), types.Float(0.5), types.Float(2.5), types.Float(math.NaN()),
	types.Null(), types.Float(-1.25), types.Int(math.MaxInt64), types.Float(1e300),
	types.Float(math.Inf(1)), types.String("s"), types.PosInf(), types.NegInf(),
}

// aggDivisors is the domain of x, the divisor of sum(1/x).
var aggDivisors = []types.Value{
	types.Int(1), types.Int(2), types.Float(0.5), types.Int(-1),
	types.Float(3), types.Int(4), types.Int(0), types.Float(math.Copysign(0, -1)),
}

// aggSpecsAll are the aggregates decodeAggInput chooses from, over the
// schema (g0, g1, a, x) with the group-by attributes first.
func aggSpecsAll(ng int) []ra.AggSpec {
	a, x := expr.Col(ng, "a"), expr.Col(ng+1, "x")
	return []ra.AggSpec{
		{Fn: ra.AggSum, Arg: a, Name: "s"},
		{Fn: ra.AggMin, Arg: a, Name: "lo"},
		{Fn: ra.AggMax, Arg: a, Name: "hi"},
		{Fn: ra.AggCount, Arg: a, Name: "c"},
		{Fn: ra.AggCount, Name: "n"},
		{Fn: ra.AggAvg, Arg: a, Name: "m"},
		{Fn: ra.AggSum, Arg: expr.Mul(expr.Sub(a, expr.CInt(1)), x), Name: "ax"},
		{Fn: ra.AggSum, Arg: expr.Div(expr.CInt(1), x), Name: "inv"},
		{Fn: ra.AggSum, Arg: expr.If{Cond: expr.Gt(a, expr.CInt(0)), Then: a, Else: expr.CInt(0)}, Name: "pos"},
	}
}

// decodeAggInput turns bytes into an aggregation: a relation over up to
// two group-by attributes, a measure a and a divisor x, and the aggregates
// to compute. The header picks the group-by arity (0-2), the aggregates
// (one bit each of the second byte; the ninth, a CASE, by header bit 64)
// and which failing values may appear: strings, infinity sentinels, and
// zero divisors. Every row then takes one byte per group-by
// attribute (low four bits pick the value; bit 4 makes it a box, whose
// other corners come from a further byte), one for a (bit 5 makes it a
// range), one for x and one for the multiplicity. Header bit 128 makes a
// mostly points: its byte must then have bits 5, 6 and 7 all set to make
// it a range, so the columnar copies store a dense column of points with
// a few exceptions.
func decodeAggInput(data []byte) (*Relation, []int, []ra.AggSpec) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	h, pick := next(), next()
	ng := int(h % 3)
	strs, sentinels, zeros, fewRanges := h&8 != 0, h&16 != 0, h&32 != 0, h&128 != 0
	attrs := []string{"g0", "g1"}[:ng]
	in := New(schema.New(append(attrs, "a", "x")...))
	var specs []ra.AggSpec
	for i, s := range aggSpecsAll(ng) {
		if i < 8 && pick>>i&1 == 1 || i == 8 && h&64 != 0 {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		specs = aggSpecsAll(ng)[4:5] // count(*)
	}
	box := func(v types.Value, alphabet []types.Value, y byte) rangeval.V {
		cs := []types.Value{alphabet[y&15], v, alphabet[y>>4]}
		slices.SortFunc(cs, types.Compare)
		return rangeval.New(cs[0], v, cs[2])
	}
	measure := func(b byte) types.Value {
		v := aggMeasureAlphabet[b&15]
		switch {
		case v.Kind() == types.KindString && !strs,
			v.IsInf() && !sentinels:
			return types.Int(int64(b & 15))
		}
		return v
	}
	for len(data) > 0 {
		vals := make(rangeval.Tuple, 0, ng+2)
		for range ng {
			b := next()
			v := aggKeyAlphabet[b&15]
			if b&16 != 0 {
				vals = append(vals, box(v, aggKeyAlphabet, next()))
			} else {
				vals = append(vals, rangeval.Certain(v))
			}
		}
		b := next()
		a := rangeval.Certain(measure(b))
		ranged := b&32 != 0
		if fewRanges {
			ranged = b&0xe0 == 0xe0
		}
		if ranged {
			y := next()
			cs := []types.Value{measure(y), a.SG, measure(y >> 4)}
			slices.SortFunc(cs, types.Compare)
			a = rangeval.New(cs[0], a.SG, cs[2])
		}
		x := aggDivisors[next()&7]
		if x.AsFloat() == 0 && !zeros {
			x = types.Int(5)
		}
		m := next()
		lo := int64(m & 1)
		sg := lo + int64(m>>1&1)
		vals = append(vals, a, rangeval.Certain(x))
		in.Add(Tuple{Vals: vals, M: Mult{Lo: lo, SG: sg, Hi: sg + int64(m>>2&3)}})
	}
	groupBy := make([]int, ng)
	for i := range groupBy {
		groupBy[i] = i
	}
	return in, groupBy, specs
}

// encodeAggInput draws bytes for decodeAggInput with a chosen share of box
// keys, so that inputs with no boxes (every row folded directly), a few
// widened groups and mostly widened groups all occur, and a chosen share
// of measures that are ranges: none (a flat column once compacted), a few
// (under header bit 128, a dense column of mostly points) or many.
func encodeAggInput(rng *rand.Rand, rows int, boxFrac, rangeFrac float64, keys int) []byte {
	h := byte(rng.Intn(128))
	if rangeFrac < 0.5 {
		h |= 128
	}
	data := []byte{h, byte(rng.Intn(256))}
	ng := int(h % 3)
	for range rows {
		for range ng {
			b := byte(rng.Intn(keys))
			if rng.Float64() < boxFrac {
				data = append(data, b|16, byte(rng.Intn(256)))
			} else {
				data = append(data, b)
			}
		}
		b := byte(rng.Intn(16))
		if rng.Float64() < rangeFrac {
			b |= 0xe0 // a range under either header
		}
		data = append(data, b)
		if b&32 != 0 {
			data = append(data, byte(rng.Intn(256)))
		}
		data = append(data, byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// mixedInput feeds r to the kernel the way the pipeline does: runs of row
// tuples and runs of columnar rows (from a compacted copy of r), some
// behind a selection vector. The first run is rows and the second columns,
// so an evaluator that wrote a columnar row over a stored tuple would
// change r. It returns the input and the relation of
// exactly the rows it holds, for the oracle.
func mixedInput(rng *rand.Rand, r *Relation) (*AggInput, *Relation) {
	sparse := r.Clone()
	sparse.Compact(StoragePolicy{})
	cols, mflat, mdense, _ := sparse.SparseView()
	in := NewAggInput(0)
	want := New(r.Schema)
	for lo, run := 0, 0; lo < len(r.Tuples); run++ {
		hi := min(lo+1+rng.Intn(40), len(r.Tuples))
		switch {
		case run == 0, run > 1 && rng.Intn(3) == 0:
			in.AppendRows(r.Tuples[lo:hi])
			want.Tuples = append(want.Tuples, r.Tuples[lo:hi]...)
		default:
			span := make([]rangeval.Col, len(cols))
			for c := range cols {
				span[c] = cols[c].Slice(lo, hi)
			}
			mf, md := mflat, mdense
			if mf != nil {
				mf = mf[lo:hi]
			} else {
				md = md[lo:hi]
			}
			var sel []int
			if rng.Intn(2) == 0 {
				sel = []int{}
				for i := 0; i < hi-lo; i++ {
					if rng.Intn(3) > 0 {
						sel = append(sel, i)
					}
				}
			}
			in.AppendColumns(span, mf, md, hi-lo, sel)
			rows := sparse.DenseRange(lo, hi)
			if sel == nil {
				want.Tuples = append(want.Tuples, rows...)
			} else {
				for _, i := range sel {
					want.Tuples = append(want.Tuples, rows[i])
				}
			}
		}
		lo = hi
	}
	return in, want
}

// denseColumns feeds r to the kernel as one columnar run in which every
// column is stored dense, certain cells as point triples: a column of
// certain cells is then all points, and one with a few ranges is mostly
// points, the lanes' two dense cases.
func denseColumns(r *Relation) *AggInput {
	cols := make([]rangeval.Col, len(r.Schema.Attrs))
	for c := range cols {
		d := make([]rangeval.V, len(r.Tuples))
		for i, t := range r.Tuples {
			d[i] = t.Vals[c]
		}
		cols[c] = rangeval.ColFromDense(d)
	}
	ms := make([]Mult, len(r.Tuples))
	for i, t := range r.Tuples {
		ms[i] = t.M
	}
	in := NewAggInput(0)
	in.AppendColumns(cols, nil, ms, len(r.Tuples), nil)
	return in
}

// aggResult renders a result or its error, the two things that must match.
// String() prints a Compare-certain triple such as [-0/0/-0] as one value,
// so every component's kind and bits are appended as well.
func aggResult(r *Relation, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(r.String())
	for _, t := range r.Tuples {
		for _, v := range t.Vals {
			for _, x := range []types.Value{v.Lo, v.SG, v.Hi} {
				fmt.Fprintf(&sb, "%v:%x ", x.Kind(), math.Float64bits(x.AsFloat()))
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// checkAggInput asserts that the kernel matches the oracle byte for byte —
// the result's String() or the error text — on row, compacted (flat and
// dense columns), all-dense-columns and mixed inputs, at workers {1, 4}
// and AggCompression {0, 3}.
func checkAggInput(t *testing.T, data []byte) {
	t.Helper()
	in, groupBy, specs := decodeAggInput(data)
	checkAggRelation(t, in, groupBy, specs, int64(len(data)))
}

// checkAggRelation is checkAggInput over a relation; seed draws the runs
// of the mixed input.
func checkAggRelation(t *testing.T, in *Relation, groupBy []int, specs []ra.AggSpec, seed int64) {
	t.Helper()
	ctx := context.Background()
	plans, slots, err := planAggs(specs)
	if err != nil {
		t.Fatal(err)
	}
	names := append([]string(nil), in.Schema.Attrs[:len(groupBy)]...)
	for _, s := range specs {
		names = append(names, s.Name)
	}
	out := schema.New(names...)
	sparse := in.Clone()
	sparse.Compact(StoragePolicy{})
	mixed, mixedRel := mixedInput(rand.New(rand.NewSource(seed)), in)
	// The kernel only reads its input: a stored tuple that changed would
	// change the table it came from.
	before, beforeSparse := aggResult(in, nil), aggResult(sparse, nil)
	defer func() {
		if aggResult(in, nil) != before || aggResult(sparse, nil) != beforeSparse {
			t.Fatalf("the kernel changed its input, aggregates %v:\n%s\nwas\n%s", specs, in, before)
		}
	}()
	inputs := []struct {
		name   string
		in     *AggInput
		oracle *Relation
	}{
		{"rows", aggInputOf(in), in},
		{"compacted", aggInputOf(sparse), sparse},
		{"dense columns", denseColumns(in), in},
		{"mixed", mixed, mixedRel},
	}
	for _, x := range inputs {
		for _, comp := range []int{0, 3} {
			for _, w := range []int{1, 4} {
				opt := Options{Workers: w, AggCompression: comp}
				want := aggResult(naiveAggregate(ctx, x.oracle, groupBy, plans, slots, out, opt))
				got := aggResult(aggregate(ctx, x.in, groupBy, plans, slots, out, opt))
				if got != want {
					t.Fatalf("%s input, workers %d, compression %d, aggregates %v:\n%s\nwant (oracle)\n%s\ninput:\n%s",
						x.name, w, comp, specs, got, want, x.oracle)
				}
			}
		}
	}
}

// TestAggMatchesOracle: the two-pass kernel returns exactly what the
// materialize-everything kernel returns, answers and errors, on random
// inputs with group-by arity 0-2, points and boxes (a box's SG may equal a
// point key), multiplicities with Lo = 0 and SG = 0, every aggregate over
// ints, floats, NaN, -0 and nulls, and failing sums (a string, both
// infinity sentinels, 1/0). Measures are all points, mostly points or
// half ranges, and each input is read as rows, as flat and dense columns,
// as all dense columns and mixed (see checkAggInput), so the argument
// lanes are flat, all points, points with exceptions and gathered from
// rows. Some inputs have over 32 groups, so workers 4 splits both passes.
func TestAggMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	trials := 300
	if testing.Short() {
		trials = 80
	}
	errs := 0
	for trial := range trials {
		boxFrac := []float64{0, 0, 0.05, 0.3}[trial%4]
		keys := []int{3, 16}[trial/4%2]
		rangeFrac := []float64{0, 0.125, 0.5}[trial/8%3]
		data := encodeAggInput(rng, rng.Intn(1+trial%7*40), boxFrac, rangeFrac, keys)
		in, groupBy, specs := decodeAggInput(data)
		plans, slots, _ := planAggs(specs)
		if _, err := naiveAggregate(context.Background(), in, groupBy, plans, slots, schema.New(), Options{Workers: 1}); err != nil {
			errs++
		}
		checkAggInput(t, data)
	}
	if errs == 0 || errs == trials {
		t.Fatalf("%d of %d inputs failed: the errors are not exercised", errs, trials)
	}
}

// TestAggLateErrors: on inputs of several blocks, where workers evaluate
// the next block's arguments while the current one folds, the error is
// still the one the oracle reports: an argument error in a late block,
// one that a fold error in an earlier block does not outrank, and a fold
// error in a late block. Every case runs with mixed row and columnar
// input at workers {1, 4}.
func TestAggLateErrors(t *testing.T) {
	const n = 3000
	rel := func(edit func(i int, a, x *types.Value)) *Relation {
		r := New(schema.New("g", "a", "x"))
		for i := range n {
			a, x := types.Value(types.Int(int64(i%11))), types.Value(types.Int(int64(1+i%4)))
			edit(i, &a, &x)
			g := rangeval.Certain(types.Int(int64(i % 3)))
			if i%50 == 0 {
				g = rangeval.New(types.Int(0), types.Int(int64(i%3)), types.Int(1))
			}
			r.Add(Tuple{Vals: rangeval.Tuple{g, rangeval.Certain(a), rangeval.Certain(x)}, M: One})
		}
		return r
	}
	specs := []ra.AggSpec{
		{Fn: ra.AggSum, Arg: expr.Col(1, "a"), Name: "s"},
		{Fn: ra.AggSum, Arg: expr.Div(expr.CInt(1), expr.Col(2, "x")), Name: "inv"},
		{Fn: ra.AggMax, Arg: expr.If{Cond: expr.Gt(expr.Col(1, "a"), expr.CInt(5)), Then: expr.Col(2, "x"), Else: expr.CInt(0)}, Name: "m"},
	}
	cases := []struct {
		name string
		want string // in the oracle's error
		edit func(i int, a, x *types.Value)
	}{
		{"argument error in a late block", "division by zero", func(i int, _, x *types.Value) {
			if i == 2500 {
				*x = types.Int(0)
			}
		}},
		{"argument error after a fold error", "division by zero", func(i int, a, x *types.Value) {
			switch i {
			case 300:
				*a = types.PosInf()
			case 303:
				*a = types.NegInf()
			case 2900:
				*x = types.Int(0)
			}
		}},
		{"fold error in a late block", "invalid operands", func(i int, a, _ *types.Value) {
			switch i {
			case 2400:
				*a = types.PosInf()
			case 2700:
				*a = types.NegInf()
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := rel(c.edit)
			plans, slots, _ := planAggs(specs)
			if _, err := naiveAggregate(context.Background(), in, []int{0}, plans, slots, schema.New("g", "s", "inv", "m"), Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("oracle error %v, want one containing %q", err, c.want)
			}
			checkAggRelation(t, in, []int{0}, specs, 1)
		})
	}
}

// TestAggErrorOrder pins which error wins when several could: an argument
// error over any fold error, a fold error by its position in the walk
// (point keys in first-seen order) rather than in the input, and an SG
// error only when no fold fails.
func TestAggErrorOrder(t *testing.T) {
	row := func(g int64, a, x types.Value, m Mult) Tuple {
		return Tuple{Vals: rangeval.Tuple{civ(g), rangeval.Certain(a), rangeval.Certain(x)}, M: m}
	}
	s, one, two := types.String("s"), types.Int(1), types.Int(2)
	maybe := Mult{Lo: 0, SG: 1, Hi: 1}
	sum := ra.AggSpec{Fn: ra.AggSum, Arg: expr.Col(1, "a"), Name: "s"}
	inv := ra.AggSpec{Fn: ra.AggSum, Arg: expr.Div(expr.CInt(1), expr.Col(2, "x")), Name: "inv"}
	cases := []struct {
		name  string
		rows  []Tuple
		specs []ra.AggSpec
		want  string
	}{
		{"walk order", []Tuple{
			row(1, one, one, One), row(2, s, one, One), row(1, s, one, Mult{Lo: 2, SG: 2, Hi: 2}),
		}, []ra.AggSpec{sum}, "2 (int), s (string)"},
		{"argument first", []Tuple{
			row(1, s, one, One), row(1, one, types.Int(0), One),
		}, []ra.AggSpec{sum, inv}, "aggregate inv: types: division by zero"},
		{"SG last", []Tuple{
			row(1, types.PosInf(), two, maybe), row(1, types.NegInf(), two, maybe),
		}, []ra.AggSpec{sum}, "invalid operands for +inf"},
		{"a group's first SG error", []Tuple{
			row(1, types.PosInf(), types.NegInf(), maybe), row(1, types.NegInf(), two, maybe),
			row(1, one, types.PosInf(), maybe),
		}, []ra.AggSpec{sum, {Fn: ra.AggSum, Arg: expr.Col(2, "x"), Name: "x"}}, "+inf (posinf), -inf (neginf)"},
	}
	for _, c := range cases {
		r := New(schema.New("g", "a", "x"))
		for _, t := range c.rows {
			r.Add(t)
		}
		plans, slots, err := planAggs(c.specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			opt := Options{Workers: w}
			_, err := aggregate(context.Background(), aggInputOf(r), []int{0}, plans, slots, schema.New(), opt)
			_, want := naiveAggregate(context.Background(), r, []int{0}, plans, slots, schema.New(), opt)
			if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s, workers %d: error %v, oracle %v, want one containing %q", c.name, w, err, want, c.want)
			}
		}
	}
}

// FuzzAgg checks the kernel against the oracle on inputs decoded from
// arbitrary bytes. Seeds, a -0 point key, a NaN argument, a widened group
// and a string sum among them, are under testdata/fuzz/FuzzAgg.
//
//	go test ./internal/core -run='^$' -fuzz FuzzAgg -fuzztime 30s
func FuzzAgg(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep each input fast
		}
		checkAggInput(t, data)
	})
}

// TestAggFuzzSeeds: each committed seed decodes to the case its name
// promises, so the corpus keeps covering them.
func TestAggFuzzSeeds(t *testing.T) {
	cases := map[string]func(*Relation) bool{
		// Two upper bounds of a whose sum leaves int64: the sum's bound
		// saturates, and its SG does not overflow.
		"seed-overflow-sum": func(r *Relation) bool {
			hi, sg := new(big.Int), new(big.Int)
			for _, t := range r.Tuples {
				hi.Add(hi, big.NewInt(t.Vals[0].Hi.AsInt()))
				sg.Add(sg, big.NewInt(t.Vals[0].SG.AsInt()))
			}
			return len(r.Tuples) == 2 && !hi.IsInt64() && sg.IsInt64()
		},
		// Under header bit 128, a is mostly points with a range among
		// them: a dense column of points with exceptions once compacted.
		"seed-point-lane-mixed": func(r *Relation) bool {
			ranges := 0
			for _, t := range r.Tuples {
				if !t.Vals[1].IsCertain() {
					ranges++
				}
			}
			return ranges > 0 && 2*ranges < len(r.Tuples)
		},
		"seed-negzero-key": func(r *Relation) bool {
			return types.Same(r.Tuples[0].Vals[0].SG, types.Float(math.Copysign(0, -1)))
		},
		"seed-nan-arg":       func(r *Relation) bool { return math.IsNaN(r.Tuples[0].Vals[0].SG.AsFloat()) },
		"seed-widened-group": func(r *Relation) bool { return !r.Tuples[1].Vals[0].IsCertain() },
		"seed-string-sum":    func(r *Relation) bool { return r.Tuples[0].Vals[0].SG.Kind() == types.KindString },
		// Under compression a sum meets a NaN made by 0 × +Inf and the
		// input's NaN: NaN + NaN, whose payload a typed loop could pick
		// differently from types.Add.
		"seed-nan-payloads": func(r *Relation) bool {
			nan, inf := false, false
			for _, t := range r.Tuples {
				nan = nan || math.IsNaN(t.Vals[1].Lo.AsFloat())
				inf = inf || math.IsInf(t.Vals[1].SG.AsFloat(), 1) && t.Vals[1].SG.Kind() == types.KindFloat
			}
			return nan && inf
		},
		// The seeds of the direct fold, whose keys are all certain. An int
		// sum whose SG crosses MaxInt64 before the last row:
		"seed-direct-int-overflow": func(r *Relation) bool {
			sum, crossed := new(big.Int), -1
			for x, t := range r.Tuples {
				if t.M.Lo <= 0 || t.Vals[0].SG.Kind() != types.KindInt {
					return false
				}
				if sum.Add(sum, big.NewInt(t.M.SG*t.Vals[0].SG.AsInt())); !sum.IsInt64() && crossed < 0 {
					crossed = x
				}
			}
			return crossed >= 0 && crossed < len(r.Tuples)-1
		},
		// Two float infinities and an input NaN, every row certainly
		// present.
		"seed-direct-nan-payloads": func(r *Relation) bool {
			infs, nan := 0, false
			for _, t := range r.Tuples {
				a := t.Vals[0].SG
				if a.Kind() == types.KindFloat && math.IsInf(a.AsFloat(), 1) {
					infs++
				}
				nan = nan || a.Kind() == types.KindFloat && math.IsNaN(a.AsFloat())
				if t.M.Lo <= 0 {
					return false
				}
			}
			return infs >= 2 && nan
		},
		"seed-direct-negzero-first": func(r *Relation) bool {
			return types.Same(r.Tuples[0].Vals[0].SG, types.Float(math.Copysign(0, -1))) && r.Tuples[0].M.Lo > 0
		},
		// Ints in the first chunk, floats in the second.
		"seed-direct-kind-switch": func(r *Relation) bool {
			if len(r.Tuples) <= expr.RangeChunk {
				return false
			}
			for x, t := range r.Tuples {
				want := types.KindInt
				if x >= expr.RangeChunk {
					want = types.KindFloat
				}
				if t.Vals[0].SG.Kind() != want || t.M.Lo <= 0 {
					return false
				}
			}
			return true
		},
		// Key 0's rows are all certainly present; key 1's interleave rows
		// with M.Lo = 0 (SG 1 and SG 0) with rows that are.
		"seed-direct-maybe-rows": func(r *Relation) bool {
			var maybe [2][2]int // per key, rows with M.Lo > 0 and with M.Lo = 0
			for _, t := range r.Tuples {
				k, absent := t.Vals[0], 0
				if !k.IsCertain() || k.SG.Kind() != types.KindInt || k.SG.AsInt() > 1 {
					return false
				}
				if t.M.Lo == 0 {
					absent = 1
				}
				maybe[k.SG.AsInt()][absent]++
			}
			return maybe[0][0] > 0 && maybe[0][1] == 0 && maybe[1][0] > 0 && maybe[1][1] > 0
		},
		// min and max where one key's values are all strings.
		"seed-direct-string-minmax": func(r *Relation) bool {
			for _, t := range r.Tuples {
				if !t.Vals[0].IsCertain() || (t.Vals[0].SG.AsInt() == 0) != (t.Vals[1].SG.Kind() == types.KindString) {
					return false
				}
			}
			return len(r.Tuples) > 0
		},
	}
	for name, check := range cases {
		if in, _, _ := decodeAggInput(readAggSeed(t, name)); in.Len() == 0 || !check(in) {
			t.Errorf("%s decodes to\n%s", name, in)
		}
	}
}

// readAggSeed returns the bytes of a committed FuzzAgg seed.
func readAggSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzAgg", name))
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(raw), "\n")[1], "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(data)
}

// cancelAggInput is large enough that the uncancelled aggregation takes
// well over 100 ms: 60k rows over 3000 groups, where every tenth row has a
// box key that widens its group and overlaps 80 others.
func cancelAggInput() (*AggInput, []int, []slot) {
	r := New(schema.New("g", "a"))
	for i := range 60000 {
		g := rangeval.Certain(types.Int(int64(i % 3000)))
		if i%10 == 0 {
			g = rangeval.New(types.Int(int64(i%3000-40)), types.Int(int64(i%3000)), types.Int(int64(i%3000+40)))
		}
		r.Add(Tuple{Vals: rangeval.Tuple{g, rangeval.Certain(types.Float(float64(i % 97)))}, M: One})
	}
	_, slots, _ := planAggs([]ra.AggSpec{
		{Fn: ra.AggSum, Arg: expr.Mul(expr.Col(1, "a"), expr.CFloat(1.5)), Name: "s"},
		{Fn: ra.AggAvg, Arg: expr.Col(1, "a"), Name: "m"},
	})
	return aggInputOf(r), []int{0}, slots
}

// TestAggCancellation: a cancellation in the middle of either pass or of
// the walk returns ctx.Err() within 50 ms, at workers {1, 4}. Each stage
// runs once uncancelled to time it, then again with the context cancelled
// halfway through.
func TestAggCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("aggregation cancellation timing skipped in -short mode")
	}
	in, groupBy, slots := cancelAggInput()
	gs, err := groupRows(in, groupBy, 0, ctxpoll.New(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		spans := ChunkSpans(len(gs.gbox), workers, minParGroups)
		pass2 := func(ctx context.Context) (*aggKernel, error) {
			k, err := newAggKernel(in, groupBy, slots, gs, 0, ctxpoll.New(ctx))
			if err != nil {
				return nil, err
			}
			_, _, err = k.foldRows(ctx, workers, spans)
			return k, err
		}
		folded, err := pass2(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ws := folded.walkOrder()
		stages := []struct {
			name string
			run  func(ctx context.Context) error
		}{
			{"pass 1", func(ctx context.Context) error {
				_, err := groupRows(in, groupBy, 0, ctxpoll.New(ctx))
				return err
			}},
			{"pass 2", func(ctx context.Context) error {
				_, err := pass2(ctx)
				return err
			}},
			{"walk", func(ctx context.Context) error {
				return runSpans(ctx, spans, func(_ int, s Span, p *ctxpoll.Poll) error {
					var fail foldErr
					return folded.walk(s, ws, p, &fail)
				})
			}},
		}
		for _, st := range stages {
			start := time.Now()
			if err := st.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			full := time.Since(start)
			ctx, cancel := context.WithCancel(context.Background())
			at := make(chan time.Time, 1)
			timer := time.AfterFunc(full/2, func() {
				at <- time.Now()
				cancel()
			})
			err := st.run(ctx)
			done := time.Now()
			fired := !timer.Stop()
			cancel()
			if !fired {
				t.Logf("workers %d, %s: finished in %v before the cancel", workers, st.name, done.Sub(start))
				continue
			}
			cancelled := <-at
			if cancelled.After(done) {
				continue // the cancel landed after the stage returned
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers %d, %s: err = %v, want context.Canceled", workers, st.name, err)
			}
			if lag := done.Sub(cancelled); lag > 50*time.Millisecond {
				t.Fatalf("workers %d, %s: returned %v after the cancel (the stage takes %v)", workers, st.name, lag, full)
			}
		}
	}
}

// TestAppendColumnsVerbatim: a columnar batch's live rows are copied as
// they are — a flat column stays flat, a dense column keeps its triples —
// so a Compare-certain triple such as [-0/0/-0] or [1/1.0/1] keeps its
// bits, which re-appending through a ColBuilder would lose.
func TestAppendColumnsVerbatim(t *testing.T) {
	negZero := rangeval.New(types.Float(math.Copysign(0, -1)), types.Float(0), types.Float(math.Copysign(0, -1)))
	mixed := rangeval.New(types.Int(1), types.Float(1), types.Int(1))
	dense := []rangeval.V{negZero, mixed, rangeval.New(types.Int(0), types.Int(1), types.Int(2)), negZero}
	flat := []types.Value{types.Int(5), types.Null(), types.Float(math.NaN()), types.String("a")}
	cols := []rangeval.Col{rangeval.ColFromFlat(flat), rangeval.ColFromDense(dense)}
	mdense := []Mult{One, {Lo: 0, SG: 1, Hi: 2}, One, {Lo: 1, SG: 1, Hi: 3}}
	for _, sel := range [][]int{nil, {0, 1, 3}} {
		in := NewAggInput(0)
		in.AppendColumns(cols, nil, mdense, 4, sel)
		live := sel
		if live == nil {
			live = []int{0, 1, 2, 3}
		}
		pt := &in.parts[0]
		if in.Len() != len(live) || !pt.cols[0].IsFlat() || pt.cols[1].IsFlat() || pt.cols[0].Nulls != 1 {
			t.Fatalf("sel %v: %d rows, flat %v/%v, nulls %d", sel, in.Len(), pt.cols[0].IsFlat(), pt.cols[1].IsFlat(), pt.cols[0].Nulls)
		}
		for k, i := range live {
			d := pt.val(1, k, nil)
			if !types.Same(pt.cols[0].Flat[k], flat[i]) || !types.Same(d.Lo, dense[i].Lo) ||
				!types.Same(d.SG, dense[i].SG) || !types.Same(d.Hi, dense[i].Hi) || pt.mult(k) != mdense[i] {
				t.Fatalf("sel %v, row %d: got %v %v %v, want %v %v %v", sel, k, pt.cols[0].Flat[k], d, pt.mult(k), flat[i], dense[i], mdense[i])
			}
		}
	}
}

// TestAggPass2AllocatesPerChunk: pass 2 allocates O(chunk), not O(rows).
// One aggregation over 600 and over 6,000 point rows, with the same groups
// and slots, allocates within a small constant of each other in pass 2
// (the kernel's state, the argument lanes and programs, and the fold),
// and less than one chunk of argument triples would take. What still
// grows with the input is the chunk list (40 B a chunk) and runSpans' two
// polls per block: 1,808 B between the two sizes on linux/amd64, so the
// bound is that gap plus 1 KiB. The inputs and pass 1 are built outside
// the measured region.
func TestAggPass2AllocatesPerChunk(t *testing.T) {
	a, b := expr.Col(1, "a"), expr.Col(2, "b")
	_, slots, err := planAggs([]ra.AggSpec{
		{Fn: ra.AggSum, Arg: a, Name: "s"},
		{Fn: ra.AggSum, Arg: expr.Mul(a, expr.Sub(expr.CInt(1), b)), Name: "d"},
		{Fn: ra.AggAvg, Arg: b, Name: "m"},
		{Fn: ra.AggMin, Arg: b, Name: "lo"},
	})
	if err != nil {
		t.Fatal(err)
	}
	input := func(n int) *AggInput {
		g, av := make([]types.Value, n), make([]types.Value, n)
		bv, m := make([]rangeval.V, n), make([]int64, n)
		for i := range n {
			g[i], av[i], m[i] = types.Int(int64(i%7)), types.Float(float64(i%97)), 1
			bv[i] = rangeval.Certain(types.Float(float64(i%5) / 10))
			if i%50 == 0 {
				bv[i] = rangeval.New(types.Float(0), bv[i].SG, types.Float(0.5))
			}
		}
		in := NewAggInput(0)
		in.AppendColumns([]rangeval.Col{rangeval.ColFromFlat(g), rangeval.ColFromFlat(av), rangeval.ColFromDense(bv)}, m, nil, n, nil)
		return in
	}
	ctx := context.Background()
	pass2 := func(in *AggInput) uint64 {
		gs, err := groupRows(in, []int{0}, 0, ctxpoll.New(ctx))
		if err != nil {
			t.Fatal(err)
		}
		spans := ChunkSpans(len(gs.gbox), 1, minParGroups)
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			k, err := newAggKernel(in, []int{0}, slots, gs, 0, ctxpoll.New(ctx))
			if err == nil {
				_, _, err = k.foldRows(ctx, 1, spans)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := pass2(input(600)), pass2(input(6000))
	triples := uint64(expr.RangeChunk*len(slots)) * uint64(unsafe.Sizeof(rangeval.V{}))
	t.Logf("pass 2: %d B over 600 rows, %d B over 6,000; one chunk of triples is %d B", small, large, triples)
	const slack = 1808 + 1<<10
	if large > small+slack || large >= triples {
		t.Fatalf("pass 2 allocates %d B over 600 rows and %d B over 6,000; want within %d B of each other and under %d B, one chunk of triples", small, large, slack, triples)
	}
}
