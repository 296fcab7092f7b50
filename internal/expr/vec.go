package expr

import (
	"fmt"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// Prog runs a range program over flat columns held as [][]types.Value,
// one slice of certain values per attribute. It is a thin wrapper kept for
// callers that hold columns that way: the executor runs RangeProg on its
// batches directly. Like a RangeProg, it is not safe for concurrent use.
type Prog struct {
	rp     *RangeProg
	attrs  []int
	cols   []rangeval.Col
	truths []Truth
}

// CompileVec compiles e for SelectInto. ok is false when e is outside the
// CertainFastSafe subset, where a selection over certain values may
// differ from Eval's.
func CompileVec(e Expr) (*Prog, bool) {
	if !CertainFastSafe(e) {
		return nil, false
	}
	rp, ok := CompileRange(e)
	if !ok {
		return nil, false
	}
	return &Prog{rp: rp, attrs: Attrs(e)}, true
}

// Attrs returns the attribute indexes the program reads (first-seen
// order). The caller must supply a non-nil column for each.
func (p *Prog) Attrs() []int { return p.attrs }

// SelectInto evaluates the program as a predicate over cols — one slice
// per attribute, indexed by physical row in [0, n) — at the live indexes
// (all of [0, n) when live is nil) and appends the indexes where it holds
// to out. Within CertainFastSafe these are the rows where Eval holds. On
// error, out is unchanged.
func (p *Prog) SelectInto(cols [][]types.Value, n int, live []int, out []int) ([]int, error) {
	if len(p.cols) < len(cols) {
		p.cols = make([]rangeval.Col, len(cols))
	}
	for _, a := range p.attrs {
		if a < 0 || a >= len(cols) || cols[a] == nil {
			return out, fmt.Errorf("expr: vectorized attribute #%d unavailable", a)
		}
		p.cols[a] = rangeval.ColFromFlat(cols[a])
	}
	if len(p.truths) < n {
		p.truths = make([]Truth, n)
	}
	if err := p.rp.TruthInto(p.cols[:len(cols)], n, live, p.truths); err != nil {
		return out, err
	}
	if live == nil {
		for i, t := range p.truths[:n] {
			if t.SG {
				out = append(out, i)
			}
		}
		return out, nil
	}
	for _, i := range live {
		if p.truths[i].SG {
			out = append(out, i)
		}
	}
	return out, nil
}
