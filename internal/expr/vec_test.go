package expr

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/audb/audb/internal/types"
)

// TestVecMatchesEval: CompileVec compiles exactly the CertainFastSafe
// expressions, and its SelectInto over flat columns — with and without a
// selection vector, divisions by zero among the rows — keeps exactly the
// live rows where Eval holds, or fails exactly when Eval fails on a live
// row. A missing column is an error.
func TestVecMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	corpus := rangeCorpus()
	for range 100 {
		corpus = append(corpus, genExpr(rng, 2, 3, true))
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		cols := make([][]types.Value, 3)
		for c := range cols {
			cols[c] = make([]types.Value, n)
			for i := range cols[c] {
				cols[c][i] = types.Int(int64(rng.Intn(9) - 2))
			}
		}
		var live, idxs []int
		for i := 0; i < n; i += 1 + rng.Intn(3) {
			live = append(live, i)
		}
		idxs = live
		if trial%2 == 0 {
			live, idxs = nil, nil
			for i := range n {
				idxs = append(idxs, i)
			}
		}
		for _, e := range corpus {
			p, ok := CompileVec(e)
			if ok != CertainFastSafe(e) {
				t.Fatalf("%s: CompileVec ok %v, CertainFastSafe %v", e, ok, CertainFastSafe(e))
			}
			if !ok || MaxAttr(e) >= len(cols) {
				continue
			}
			var want []int
			var werr error
			row := make(types.Tuple, len(cols))
			for _, i := range idxs {
				for c := range cols {
					row[c] = cols[c][i]
				}
				v, err := e.Eval(row)
				if err != nil {
					werr = err
					break
				}
				if truth(v) {
					want = append(want, i)
				}
			}
			sel, err := p.SelectInto(cols, n, live, nil)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s: SelectInto error %v, Eval error %v", e, err, werr)
			}
			if werr == nil && !slices.Equal(sel, want) {
				t.Fatalf("%s: sel %v, want %v", e, sel, want)
			}
		}
	}
	p, _ := CompileVec(Lt(Col(5, "z"), CInt(1)))
	if _, err := p.SelectInto([][]types.Value{{types.Int(1)}}, 1, nil, nil); err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("missing column error = %v", err)
	}
}

// TestVecErrors: an unguarded division by zero on a live row errors out of
// the batch; with that row dead in the selection vector the batch does not
// error. A missing column is an error, not a panic.
func TestVecErrors(t *testing.T) {
	e := Eq(Div(Col(0, "a"), Col(1, "b")), CInt(2))
	p, ok := CompileVec(e)
	if !ok {
		t.Fatal("did not compile")
	}
	cols := [][]types.Value{
		{types.Int(4), types.Int(6)},
		{types.Int(2), types.Int(0)},
	}
	if _, err := p.SelectInto(cols, 2, nil, nil); err == nil {
		t.Fatal("division by zero did not error")
	}
	sel, err := p.SelectInto(cols, 2, []int{0}, nil)
	if err != nil {
		t.Fatalf("live-only select: %v", err)
	}
	if !slices.Equal(sel, []int{0}) {
		t.Fatalf("sel = %v, want [0]", sel)
	}
	wide, ok := CompileVec(Lt(Col(5, "z"), CInt(1)))
	if !ok {
		t.Fatal("did not compile")
	}
	if _, err := wide.SelectInto(cols, 2, nil, nil); err == nil || !strings.Contains(err.Error(), "unavailable") {
		t.Fatalf("missing column error = %v", err)
	}
}

// TestCompileVecRejects: expressions outside the CertainFastSafe subset
// must not compile. A zero-argument least/greatest is inside it: it
// compiles, and selecting with it fails with Eval's error.
func TestCompileVecRejects(t *testing.T) {
	for _, e := range []Expr{
		C(types.Null()),                         // null constant breaks Eval≡EvalRange
		And(CBool(true), Div(CInt(1), CInt(0))), // non-errFree right operand
	} {
		if _, ok := CompileVec(e); ok {
			t.Fatalf("%s compiled, want rejection", e)
		}
	}
	if _, ok := CompileVec(Lt(Col(0, "a"), CInt(1))); !ok {
		t.Fatal("safe comparison rejected")
	}
	e := Lt(Least(), CInt(1))
	p, ok := CompileVec(e)
	if !ok {
		t.Fatalf("%s rejected", e)
	}
	_, werr := e.Eval(types.Tuple{types.Int(0)})
	_, err := p.SelectInto([][]types.Value{{types.Int(0)}}, 1, nil, nil)
	if werr == nil || err == nil || err.Error() != werr.Error() {
		t.Fatalf("SelectInto error %v, Eval error %v", err, werr)
	}
}
