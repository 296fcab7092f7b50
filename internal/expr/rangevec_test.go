package expr

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// rangeAlphabet is the cell domain of the range-program tests: small ints
// (zero among them, for divisions), signed float zeros, NaN, the
// sentinels, null, a string and both booleans.
var rangeAlphabet = []types.Value{
	types.Int(0), types.Int(1), types.Int(-2), types.Int(3), types.Int(5), types.Int(-4),
	types.Float(0), types.Float(math.Copysign(0, -1)), types.Float(2.5), types.Float(math.NaN()),
	types.NegInf(), types.PosInf(), types.Null(), types.String("s"),
	types.Bool(true), types.Bool(false),
}

// rangeCell draws one cell: mostly a small int, sometimes any value of
// the alphabet, and, when uncertain is set, a range around it whose
// bounds are drawn from the same alphabet, or an unknown boolean such as
// [-inf/true/+inf].
func rangeCell(r *rand.Rand, uncertain bool) rangeval.V {
	v := types.Int(int64(r.Intn(11) - 5))
	if r.Intn(4) == 0 {
		v = rangeAlphabet[r.Intn(len(rangeAlphabet))]
	}
	if !uncertain || r.Intn(3) == 0 {
		return rangeval.Certain(v)
	}
	if r.Intn(8) == 0 {
		return rangeval.Full(types.Bool(r.Intn(2) == 0))
	}
	cs := []types.Value{v, types.Int(int64(r.Intn(11) - 5)), types.Int(int64(r.Intn(11) - 5))}
	if r.Intn(5) == 0 {
		cs[1], cs[2] = rangeAlphabet[r.Intn(len(rangeAlphabet))], rangeAlphabet[r.Intn(len(rangeAlphabet))]
	}
	slices.SortFunc(cs, types.Compare)
	return rangeval.New(cs[0], v, cs[2])
}

// negZeroTriple is Compare-certain but not a point by representation: its
// bounds are -0 and its SG is 0.
var negZeroTriple = rangeval.New(types.Float(math.Copysign(0, -1)), types.Float(0), types.Float(math.Copysign(0, -1)))

// lanePointCell draws a cell of a dense column that is mostly points: a
// point of the alphabet (-0 and NaN among them), and one time in eight an
// exception, either a genuine range or [-0/0/-0].
func lanePointCell(r *rand.Rand) rangeval.V {
	switch r.Intn(16) {
	case 0:
		return negZeroTriple
	case 1:
		return rangeCell(r, true)
	}
	return rangeCell(r, false)
}

// rangeBatch builds n rows of arity columns, each stored flat or dense per
// layout: 'f' flat (certain cells), 'd' dense (uncertain cells), 'c' dense
// but every cell certain, 'p' dense and mostly points (lanePointCell).
func rangeBatch(r *rand.Rand, layout string, n int) []rangeval.Col {
	cols := make([]rangeval.Col, len(layout))
	for c, l := range layout {
		if l == 'f' {
			flat := make([]types.Value, n)
			for i := range flat {
				flat[i] = rangeCell(r, false).SG
			}
			cols[c] = rangeval.ColFromFlat(flat)
			continue
		}
		dense := make([]rangeval.V, n)
		for i := range dense {
			if l == 'p' {
				dense[i] = lanePointCell(r)
			} else {
				dense[i] = rangeCell(r, l == 'd')
			}
		}
		cols[c] = rangeval.ColFromDense(dense)
	}
	return cols
}

// rangeCorpus spans every node kind — comparisons, connectives,
// arithmetic, If partitioning, IsNull, n-ary folds, nesting — and the
// hard forms: a null constant, boolean nodes read as values and values
// read as booleans, the guarded division (its Else branch must never see
// the rows its guard excludes) over a certain and an uncertain divisor,
// an unguarded division in the right operand of AND, a condition read
// from a column, and the expressions that always fail on a live row.
func rangeCorpus() []Expr {
	a, b, c := Col(0, "a"), Col(1, "b"), Col(2, "c")
	return []Expr{
		Lt(a, CInt(3)),
		Leq(Add(a, b), CInt(4)),
		And(Gt(a, CInt(0)), Or(Eq(b, CInt(1)), Neq(a, b))),
		Not{E: Geq(a, b)},
		Mul(Sub(a, b), CInt(2)),
		If{Cond: Lt(a, CInt(0)), Then: Sub(CInt(0), a), Else: a},
		If{Cond: Eq(b, CInt(0)), Then: CInt(-1), Else: Div(a, b)},
		IsNull{E: a},
		Least(a, b, CInt(2)),
		Greatest(a, Sub(b, CInt(1))),
		Eq(Least(a, b), Greatest(a, b)),
		Eq(a, C(types.Null())),
		Add(b, C(types.Null())),
		IsNull{E: Add(a, c)},
		Least(Lt(a, b), Not{E: c}),
		If{Cond: c, Then: Lt(a, CInt(2)), Else: IsNull{E: b}},
		And(c, Or(a, Geq(b, c))),
		And(Lt(a, CInt(1)), Gt(Div(CInt(1), CInt(0)), CInt(0))),
		Or(Gt(a, CInt(2)), Gt(Div(b, c), CInt(1))),
		If{Cond: Neq(c, CInt(0)), Then: Div(a, c), Else: Sub(b, a)},
		If{Cond: Lt(a, b), Then: If{Cond: Gt(c, CInt(0)), Then: Mul(a, c), Else: b}, Else: Sub(CInt(0), a)},
		Greatest(a, b, c, Mul(a, CFloat(0.5))),
		Least(),
		Col(7, "z"),
		Not{E: Eq(Col(1, "b"), Col(1, "b"))},
		// Lanes: a flat or mostly-point column against a constant, Div's
		// general rule, signed zeros and NaN as points, and lanes as
		// operands of lanes.
		Add(a, CInt(3)),
		Sub(CFloat(math.Copysign(0, -1)), b),
		Mul(c, CFloat(math.Copysign(0, -1))),
		Add(b, CFloat(math.NaN())),
		Div(a, CInt(2)),
		Div(Add(a, b), Sub(c, CFloat(0.5))),
		Mul(Add(a, CInt(1)), Sub(b, c)),
	}
}

// evalLanes runs EvalLane over each chunk of cols with a live row, as the
// executor's projection does, and writes each live row's value into out
// at its physical index.
func evalLanes(p *RangeProg, cols []rangeval.Col, n int, live []int, out []rangeval.V) error {
	var lane Lane
	j := 0
	for lo := 0; lo < n; lo += RangeChunk {
		hi := min(lo+RangeChunk, n)
		rows := live
		if live != nil {
			k := j
			for j < len(live) && live[j] < hi {
				j++
			}
			if rows = live[k:j]; len(rows) == 0 {
				continue
			}
		}
		if err := p.EvalLane(cols, lo, hi, rows, &lane); err != nil {
			return err
		}
		if rows == nil {
			for i := lo; i < hi; i++ {
				out[i] = lane.At(i - lo)
			}
			continue
		}
		for _, i := range rows {
			out[i] = lane.At(i - lo)
		}
	}
	return nil
}

// checkRangeProg compares the range program with EvalRange row by row on
// the live rows of cols: EvalLane must write every live row's value bit
// for bit and TruthInto its truths, and either must fail exactly when
// EvalRange fails on some live row. Dead rows must stay untouched. With
// every row live, EvalLane must also keep a row as a point exactly when
// its value is one, and fail exactly on the chunks where EvalRange fails
// on some row.
func checkRangeProg(t *testing.T, e Expr, cols []rangeval.Col, n int, live []int) {
	t.Helper()
	p, ok := CompileRange(e)
	if !ok {
		t.Fatalf("%s did not compile", e)
	}
	idxs := live
	if idxs == nil {
		for i := range n {
			idxs = append(idxs, i)
		}
	}
	want := make([]rangeval.V, n)
	failed := make([]bool, n)
	var werr error
	row := make(rangeval.Tuple, len(cols))
	for _, i := range idxs {
		for c := range cols {
			row[c] = cols[c].At(i)
		}
		v, err := e.EvalRange(row)
		if err != nil {
			failed[i] = true
			if werr == nil {
				werr = err
			}
			continue
		}
		want[i] = v
	}
	if live == nil {
		checkLanes(t, p, e, cols, n, want, failed)
	}

	sentinel := rangeval.Certain(types.String("dead"))
	got := make([]rangeval.V, n)
	for i := range got {
		got[i] = sentinel
	}
	gerr := evalLanes(p, cols, n, live, got)
	truths := make([]Truth, n)
	for i := range truths {
		truths[i] = Truth{Lo: true}
	}
	terr := p.TruthInto(cols, n, live, truths)
	if (werr != nil) != (gerr != nil) || (werr != nil) != (terr != nil) {
		t.Fatalf("%s over %v (live %v): EvalRange error %v, EvalLane error %v, TruthInto error %v", e, cols, live, werr, gerr, terr)
	}
	if werr != nil {
		return
	}
	isLive := make([]bool, n)
	for _, i := range idxs {
		isLive[i] = true
	}
	for i := range n {
		if !isLive[i] {
			if !sameV(got[i], sentinel) || truths[i] != (Truth{Lo: true}) {
				t.Fatalf("%s: dead row %d written: %v, %v", e, i, got[i], truths[i])
			}
			continue
		}
		if !sameV(got[i], want[i]) {
			t.Fatalf("%s: row %d = %#v, EvalRange %#v", e, i, got[i], want[i])
		}
		if truths[i] != TruthOf(want[i]) {
			t.Fatalf("%s: row %d truths %+v, EvalRange %v", e, i, truths[i], want[i])
		}
	}
}

// checkLanes runs EvalLane over every chunk of cols, all rows live, into
// one reused Lane, against EvalRange's values want and failing rows.
func checkLanes(t *testing.T, p *RangeProg, e Expr, cols []rangeval.Col, n int, want []rangeval.V, failed []bool) {
	t.Helper()
	var lane Lane
	for lo := 0; lo < n; lo += RangeChunk {
		hi := min(lo+RangeChunk, n)
		err := p.EvalLane(cols, lo, hi, nil, &lane)
		if fail := slices.Contains(failed[lo:hi], true); fail != (err != nil) {
			t.Fatalf("%s, rows [%d, %d): EvalLane error %v, EvalRange fails %v", e, lo, hi, err, fail)
		}
		if err != nil {
			continue
		}
		if len(lane.SG) != hi-lo {
			t.Fatalf("%s: lane of %d rows for a chunk of %d", e, len(lane.SG), hi-lo)
		}
		for o := range hi - lo {
			w := want[lo+o]
			if got := lane.At(o); !sameV(got, w) || !types.Same(lane.SG[o], w.SG) || (lane.Exc[o] < 0) != isPoint(&w) {
				t.Fatalf("%s: lane row %d = %#v (SG %#v, exception %d), EvalRange %#v", e, lo+o, got, lane.SG[o], lane.Exc[o], w)
			}
		}
	}
}

// TestRangeProgMatchesEvalRange runs the corpus and random expressions
// over flat, dense, mostly-point and mixed columns, with and without a
// selection vector, and over batches of several chunks.
func TestRangeProgMatchesEvalRange(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	corpus := rangeCorpus()
	for range 150 {
		corpus = append(corpus, genExpr(r, 3, 3, r.Intn(2) == 0))
	}
	layouts := []string{"fff", "ddd", "fdd", "dfc", "cfd", "dcf", "ppf", "fpd", "pcp"}
	for trial := 0; trial < 36; trial++ {
		layout := layouts[trial%len(layouts)]
		n := 1 + r.Intn(40)
		if trial%4 == 3 {
			n = 300 + r.Intn(500) // several chunks
		}
		cols := rangeBatch(r, layout, n)
		var live []int
		if trial%2 == 1 {
			for i := 0; i < n; i += 1 + r.Intn(3) {
				if trial%8 == 7 && i >= 256 && i < 512 {
					continue // a chunk with no live rows
				}
				live = append(live, i)
			}
		}
		for _, e := range corpus {
			checkRangeProg(t, e, cols, n, live)
		}
	}
}

// TestRangeProgErrors pins the error cases: the program fails whenever
// EvalRange fails on a live row, and not when the failing rows are dead
// or an If's guard keeps the failing branch off them.
func TestRangeProgErrors(t *testing.T) {
	a, b := Col(0, "a"), Col(1, "b")
	cols := []rangeval.Col{
		rangeval.ColFromDense([]rangeval.V{
			rangeval.Certain(types.Int(4)), rangeval.New(types.Int(1), types.Int(2), types.Int(3)), rangeval.Certain(types.Int(6)),
		}),
		rangeval.ColFromFlat([]types.Value{types.Int(2), types.Int(0), types.Int(3)}),
	}
	cases := []struct {
		e    Expr
		live []int
		fail bool
	}{
		{Div(a, b), nil, true},
		{Div(a, b), []int{0, 2}, false},
		{If{Cond: Eq(b, CInt(0)), Then: CInt(-1), Else: Div(a, b)}, nil, false},
		{And(Lt(a, CInt(0)), Gt(Div(CInt(1), CInt(0)), CInt(0))), nil, true},
		{Eq(a, C(types.Null())), nil, false},
		{Least(), []int{1}, true},
		{Col(2, "c"), []int{2}, true},
	}
	for _, c := range cases {
		p, _ := CompileRange(c.e)
		err := evalLanes(p, cols, 3, c.live, make([]rangeval.V, 3))
		if (err != nil) != c.fail {
			t.Errorf("%s (live %v): error %v, want failure %v", c.e, c.live, err, c.fail)
		}
		checkRangeProg(t, c.e, cols, 3, c.live)
	}
}

// cmpWithEvalSG is Cmp.EvalRange's earlier rule, kept as the oracle of
// the current one: it took the SG truth from evaluating the whole
// comparison again over the selected-guess tuple.
func cmpWithEvalSG(c Cmp, t rangeval.Tuple) (rangeval.V, error) {
	a, err := c.L.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	b, err := c.R.EvalRange(t)
	if err != nil {
		return rangeval.V{}, err
	}
	sgv, err := c.Eval(t.SG())
	if err != nil {
		return rangeval.V{}, err
	}
	sg := truth(sgv)
	var lo, hi bool
	switch c.Op {
	case OpEq:
		lo = types.Equal(a.Hi, b.Lo) && types.Equal(b.Hi, a.Lo)
		hi = a.Overlaps(b)
	case OpNeq:
		lo = !a.Overlaps(b)
		hi = !(types.Equal(a.Hi, b.Lo) && types.Equal(b.Hi, a.Lo))
	case OpLt:
		lo = types.Less(a.Hi, b.Lo)
		hi = types.Less(a.Lo, b.Hi)
	case OpLeq:
		lo = !types.Less(b.Lo, a.Hi)
		hi = !types.Less(b.Hi, a.Lo)
	case OpGt:
		lo = types.Less(b.Hi, a.Lo)
		hi = types.Less(b.Lo, a.Hi)
	case OpGeq:
		lo = !types.Less(a.Lo, b.Hi)
		hi = !types.Less(a.Hi, b.Lo)
	}
	return rangeval.New(types.Bool(lo), types.Bool(sg), types.Bool(hi)), nil
}

// TestRangeSGIsEvalOverSG checks the two facts Cmp's SG rule rests on,
// over the corpus and random range tuples: every successful EvalRange has
// the SG that Eval returns over the selected-guess tuple, bit for bit,
// and Cmp.EvalRange returns what the earlier rule returned, with the same
// error text.
func TestRangeSGIsEvalOverSG(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	corpus := rangeCorpus()
	for range 300 {
		corpus = append(corpus, genExpr(r, 3, 3, r.Intn(2) == 0))
	}
	ops := []CmpOp{OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq}
	row := make(rangeval.Tuple, 3)
	for trial := 0; trial < 400; trial++ {
		for c := range row {
			row[c] = rangeCell(r, true)
		}
		for _, e := range corpus {
			if v, err := e.EvalRange(row); err == nil {
				sg, err := e.Eval(row.SG())
				if err != nil || !types.Same(sg, v.SG) {
					t.Fatalf("%s over %v: EvalRange SG %#v, Eval over SG %#v, %v", e, row, v.SG, sg, err)
				}
			}
			c := Cmp{Op: ops[trial%len(ops)], L: e, R: corpus[(trial+len(row))%len(corpus)]}
			got, gerr := c.EvalRange(row)
			want, werr := cmpWithEvalSG(c, row)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || !sameV(got, want) {
				t.Fatalf("%s over %v = %#v, %v; earlier rule %#v, %v", c, row, got, gerr, want, werr)
			}
		}
	}
}

// extremeAlphabet is rangeAlphabet behind three ints at and near the ends
// of int64, so that the corner bytes of a range can reach them too.
var extremeAlphabet = append([]types.Value{
	types.Int(math.MaxInt64), types.Int(math.MinInt64), types.Int(math.MaxInt64/2 + 1),
}, rangeAlphabet...)

// decodeRangeCase decodes a fuzz input into an expression over three
// columns and a batch of them: a header byte picks the layout of each
// column and whether a selection vector follows, the expression is
// decoded in prefix order, and the remaining bytes are the cells. Header
// bit 16 draws constants and cells from extremeAlphabet, and bit 32 makes
// a dense column mostly points (a cell byte must be at least 240 to make
// a range). Missing bytes read as zero.
func decodeRangeCase(data []byte) (Expr, []rangeval.Col, int, []int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	h := next()
	n := 1 + int(next())
	if h&64 != 0 {
		n += 256 // a second chunk
	}
	alphabet, rangeFrom := rangeAlphabet, byte(128)
	if h&16 != 0 {
		alphabet = extremeAlphabet
	}
	if h&32 != 0 {
		rangeFrom = 240
	}
	var node func(depth int) Expr
	node = func(depth int) Expr {
		b := next()
		if depth >= 4 {
			b %= 2
		}
		switch b % 10 {
		case 0:
			return Col(int(b/10)%4, "") // 3 is out of range
		case 1:
			return C(alphabet[int(b/10)%len(alphabet)])
		case 2:
			return Arith{Op: ArithOp(b / 10 % 4), L: node(depth + 1), R: node(depth + 1)}
		case 3:
			return Cmp{Op: CmpOp(b / 10 % 6), L: node(depth + 1), R: node(depth + 1)}
		case 4:
			return Logic{Op: LogicOp(b / 10 % 2), L: node(depth + 1), R: node(depth + 1)}
		case 5:
			return Not{E: node(depth + 1)}
		case 6:
			return If{Cond: node(depth + 1), Then: node(depth + 1), Else: node(depth + 1)}
		case 7:
			return IsNull{E: node(depth + 1)}
		default:
			args := make([]Expr, int(b/10)%4)
			for i := range args {
				args[i] = node(depth + 1)
			}
			return NAry{Op: NAryOp(b / 10 % 2), Args: args}
		}
	}
	e := node(0)
	cell := func(uncertain bool) rangeval.V {
		b := next()
		v := alphabet[int(b)%len(alphabet)]
		if !uncertain || b < rangeFrom {
			return rangeval.Certain(v)
		}
		y := next()
		cs := []types.Value{v, alphabet[int(y&15)%len(alphabet)], alphabet[int(y>>4)%len(alphabet)]}
		slices.SortFunc(cs, types.Compare)
		return rangeval.New(cs[0], v, cs[2])
	}
	cols := make([]rangeval.Col, 3)
	for c := range cols {
		if h>>c&1 == 0 {
			flat := make([]types.Value, n)
			for i := range flat {
				flat[i] = cell(false).SG
			}
			cols[c] = rangeval.ColFromFlat(flat)
			continue
		}
		dense := make([]rangeval.V, n)
		for i := range dense {
			dense[i] = cell(true)
		}
		cols[c] = rangeval.ColFromDense(dense)
	}
	var live []int
	if h&8 != 0 {
		live = []int{}
		for i := range n {
			if next()&1 == 0 {
				live = append(live, i)
			}
		}
	}
	return e, cols, n, live
}

// TestRangeFuzzSeeds: each committed seed of FuzzRangeProg decodes to the
// case its name promises, so the corpus keeps covering them.
func TestRangeFuzzSeeds(t *testing.T) {
	// rows evaluates e over every live row of cols, as FuzzRangeProg does.
	rows := func(e Expr, cols []rangeval.Col, n int, live []int, f func(rangeval.Tuple, rangeval.V, error)) {
		if live == nil {
			for i := range n {
				live = append(live, i)
			}
		}
		for _, i := range live {
			row := make(rangeval.Tuple, len(cols))
			for c := range cols {
				row[c] = cols[c].At(i)
			}
			v, err := e.EvalRange(row)
			f(row, v, err)
		}
	}
	cases := map[string]func(Expr, []rangeval.Col, int, []int) bool{
		// An arithmetic root over a dense column of points with a few
		// exceptions, and no failing row.
		"seed-lane-exceptions": func(e Expr, cols []rangeval.Col, n int, live []int) bool {
			points, ranges := 0, 0
			for _, c := range cols {
				for i := 0; i < n && !c.IsFlat(); i++ {
					if v := c.At(i); isPoint(&v) {
						points++
					} else {
						ranges++
					}
				}
			}
			ok := true
			rows(e, cols, n, live, func(_ rangeval.Tuple, _ rangeval.V, err error) { ok = ok && err == nil })
			_, arith := e.(Arith)
			return arith && ok && ranges > 0 && points > 4*ranges
		},
		// A product whose upper bound saturates over int cells, with no
		// failing row.
		"seed-overflow-mul": func(e Expr, cols []rangeval.Col, n int, live []int) bool {
			saturated, ok := false, true
			rows(e, cols, n, live, func(_ rangeval.Tuple, v rangeval.V, err error) {
				ok = ok && err == nil
				saturated = saturated || err == nil && v.Hi.Kind() == types.KindPosInf && v.SG.Kind() == types.KindInt
			})
			a, mul := e.(Arith)
			return mul && a.Op == OpMul && ok && saturated
		},
	}
	// pointRow reports whether every cell of row is a point.
	pointRow := func(row rangeval.Tuple) bool {
		for i := range row {
			if !isPoint(&row[i]) {
				return false
			}
		}
		return true
	}
	// A chunk of point cells whose values are all points: point truths
	// through a comparison, AND, NOT and IS NULL.
	cases["seed-all-points"] = func(e Expr, cols []rangeval.Col, n int, live []int) bool {
		ok := n == RangeChunk
		rows(e, cols, n, live, func(row rangeval.Tuple, v rangeval.V, err error) {
			ok = ok && err == nil && pointRow(row) && isPoint(&v)
		})
		_, logic := e.(Logic)
		return ok && logic
	}
	// A comparison over a chunk whose only rows with a range cell, and so
	// with an exception, are its first and its last.
	cases["seed-exception-edges"] = func(e Expr, cols []rangeval.Col, n int, live []int) bool {
		ok, i := n == RangeChunk, 0
		rows(e, cols, n, live, func(row rangeval.Tuple, v rangeval.V, err error) {
			edge := i == 0 || i == n-1
			ok = ok && err == nil && pointRow(row) != edge && isPoint(&v) != edge
			i++
		})
		_, cmp := e.(Cmp)
		return ok && cmp
	}
	// NOT of a comparison of two certain nulls: points whose truth is an
	// exception.
	cases["seed-null-cmp"] = func(e Expr, cols []rangeval.Col, n int, live []int) bool {
		nulls := false
		rows(e, cols, n, live, func(row rangeval.Tuple, v rangeval.V, err error) {
			nulls = nulls || err == nil && pointRow(row) && row[0].SG.IsNull() && row[1].SG.IsNull() && !isPoint(&v)
		})
		not, ok := e.(Not)
		_, cmp := not.E.(Cmp)
		return ok && cmp && nulls
	}
	// A comparison of NaN with NaN.
	cases["seed-nan-cmp"] = func(e Expr, cols []rangeval.Col, n int, live []int) bool {
		isNaN := func(v types.Value) bool { return v.Kind() == types.KindFloat && math.IsNaN(v.AsFloat()) }
		nan := false
		rows(e, cols, n, live, func(row rangeval.Tuple, _ rangeval.V, err error) {
			nan = nan || err == nil && isNaN(row[0].SG) && isNaN(row[1].SG)
		})
		_, cmp := e.(Cmp)
		return cmp && nan
	}
	// An If whose condition is an exception on some row.
	cases["seed-if-exception-cond"] = func(e Expr, cols []rangeval.Col, n int, live []int) bool {
		cond, ok := e.(If)
		exc := false
		rows(cond.Cond, cols, n, live, func(_ rangeval.Tuple, v rangeval.V, err error) {
			t := TruthOf(v)
			exc = exc || err == nil && t.Lo != t.Hi
		})
		return ok && exc
	}
	for name, check := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzRangeProg", name))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.Split(string(raw), "\n")[1], "[]byte("), ")")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e, cols, n, live := decodeRangeCase([]byte(data)); !check(e, cols, n, live) {
			t.Errorf("%s decodes to %s over %v", name, e, cols)
		}
	}
}

// FuzzRangeProg checks the range-vector program against row-by-row
// EvalRange on expressions and batches decoded from arbitrary bytes: the
// same bits, or a failure where EvalRange fails on a live row. Seeds are
// under testdata/fuzz/FuzzRangeProg.
//
//	go test ./internal/expr -run='^$' -fuzz FuzzRangeProg -fuzztime 30s
func FuzzRangeProg(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep each input fast
		}
		e, cols, n, live := decodeRangeCase(data)
		checkRangeProg(t, e, cols, n, live)
	})
}
