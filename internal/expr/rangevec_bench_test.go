package expr

import (
	"math/rand"
	"testing"

	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/types"
)

// benchRows is the size of BenchmarkRangeSelect's batch.
const benchRows = 4096

// benchCols is two flat int columns q in [0, 600) and d in [0, 1000).
func benchCols() []rangeval.Col {
	r := rand.New(rand.NewSource(1))
	q, d := make([]types.Value, benchRows), make([]types.Value, benchRows)
	for i := range q {
		q[i], d[i] = types.Int(int64(r.Intn(600))), types.Int(int64(r.Intn(1000)))
	}
	return []rangeval.Col{rangeval.ColFromFlat(q), rangeval.ColFromFlat(d)}
}

// BenchmarkRangeSelect times the range program over 4,096 flat rows: the
// truths of a comparison and of a conjunction of two, and the lane of an
// addition.
//
//	go test ./internal/expr -run '^$' -bench BenchmarkRangeSelect
func BenchmarkRangeSelect(b *testing.B) {
	cols := benchCols()
	q, d := Col(0, "q"), Col(1, "d")
	for _, c := range []struct {
		name string
		e    Expr
	}{
		{"q>25", Gt(q, CInt(25))},
		{"q>300_and_d<520", And(Gt(q, CInt(300)), Lt(d, CInt(520)))},
	} {
		b.Run("truth/"+c.name, func(b *testing.B) {
			p, _ := CompileRange(c.e)
			out := make([]Truth, benchRows)
			b.ResetTimer()
			for range b.N {
				if err := p.TruthInto(cols, benchRows, nil, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
		})
	}
	b.Run("lane/q+1", func(b *testing.B) {
		p, _ := CompileRange(Add(q, CInt(1)))
		var lane Lane
		b.ResetTimer()
		for range b.N {
			for lo := 0; lo < benchRows; lo += RangeChunk {
				if err := p.EvalLane(cols, lo, lo+RangeChunk, nil, &lane); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
	})
}
