package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestOpStatsSelfAndRender(t *testing.T) {
	leaf := &OpStats{Op: "Scan(t)", Strategy: "stream", Rows: 100, Batches: 2, Elapsed: 3 * time.Millisecond,
		EstRows: 90, HasEst: true}
	mid := &OpStats{Op: "Select[(a < 3)]", Strategy: "stream", Rows: 40, Batches: 2,
		Elapsed: 5 * time.Millisecond, Children: []*OpStats{leaf}}
	root := &OpStats{Op: "Limit(5)", Strategy: "stream", Rows: 5, Batches: 1,
		Elapsed: 6 * time.Millisecond, Children: []*OpStats{mid}}
	if got := mid.Self(); got != 2*time.Millisecond {
		t.Fatalf("Self = %v, want 2ms", got)
	}
	// Clock skew between parent and child samples must not go negative.
	skew := &OpStats{Op: "x", Elapsed: time.Millisecond, Children: []*OpStats{{Elapsed: 2 * time.Millisecond}}}
	if got := skew.Self(); got != 0 {
		t.Fatalf("skewed Self = %v, want 0", got)
	}

	s := &ExecStats{BatchSize: 64, Total: 7 * time.Millisecond, Root: root}
	out := s.String()
	for _, want := range []string{
		"execution: batch 64, total 7.00ms",
		"Limit(5)", "  Select[(a < 3)]", "    Scan(t)",
		"rows=100", "est=90", "batches=2", "self",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// Nil root renders the header only.
	empty := &ExecStats{BatchSize: 1}
	if got := empty.String(); !strings.HasPrefix(got, "execution: batch 1,") || strings.Count(got, "\n") != 1 {
		t.Fatalf("empty render: %q", got)
	}
}

// TestOpStatsGolden pins the exact ExplainAnalyze rendering: columns
// are padded to the widest value in the tree, so a mixed est=-/est=<n>
// trace (cost model on, but no estimate for every operator) stays
// aligned and wide counters never shift the columns after them. The
// rep= column names the batch representation each operator emitted and
// vec= its mean selection-vector density (row batches render vec=-).
func TestOpStatsGolden(t *testing.T) {
	leaf := &OpStats{Op: "Scan(t)", Strategy: "exchange(4)", Rows: 123456, Batches: 1930,
		ColBatches: 1930, ColRows: 123456, ColPhysRows: 287000,
		EstRows: 100000, HasEst: true, Elapsed: 3 * time.Millisecond}
	mid := &OpStats{Op: "Select[(a < 3)]", Strategy: "stream", Rows: 40, Batches: 2,
		Elapsed: 5 * time.Millisecond, Children: []*OpStats{leaf}}
	root := &OpStats{Op: "Limit(5)", Strategy: "stream", Rows: 5, EstRows: 5, HasEst: true,
		Batches: 1, Elapsed: 6 * time.Millisecond, Children: []*OpStats{mid}}
	s := &ExecStats{BatchSize: 64, Total: 7 * time.Millisecond, Root: root}

	want := "" +
		"execution: batch 64, total 7.00ms\n" +
		"Limit(5)           stream      rep=row rows=5      est=5      batches=1    vec=-    time=6.00ms (self 1.00ms)\n" +
		"  Select[(a < 3)]  stream      rep=row rows=40     est=-      batches=2    vec=-    time=5.00ms (self 2.00ms)\n" +
		"    Scan(t)        exchange(4) rep=col rows=123456 est=100000 batches=1930 vec=0.43 time=3.00ms (self 3.00ms)\n"
	if got := s.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestOpStatsRep pins the representation labels: no batches renders "-",
// all-columnar "col", all-row "row", and a mix "mixed".
func TestOpStatsRep(t *testing.T) {
	for _, tc := range []struct {
		st   OpStats
		want string
	}{
		{OpStats{}, "-"},
		{OpStats{Batches: 3}, "row"},
		{OpStats{Batches: 3, ColBatches: 3}, "col"},
		{OpStats{Batches: 3, ColBatches: 1}, "mixed"},
	} {
		if got := tc.st.Rep(); got != tc.want {
			t.Fatalf("Rep(%+v) = %q, want %q", tc.st, got, tc.want)
		}
	}
	dense := OpStats{Batches: 2, ColBatches: 2, ColRows: 5, ColPhysRows: 10}
	if got := dense.VecDensity(); got != "0.50" {
		t.Fatalf("VecDensity = %q, want 0.50", got)
	}
	rowOnly := OpStats{Batches: 2}
	if got := rowOnly.VecDensity(); got != "-" {
		t.Fatalf("row-only VecDensity = %q, want -", got)
	}
}

// TestOpStatsEstColumn: operators without an estimate render est=-, ones
// with an estimate render the number — so a trace without estimates (a
// compressed execution, which skips the cost pass) is visibly distinct
// from an est-0 trace.
func TestOpStatsEstColumn(t *testing.T) {
	with := &OpStats{Op: "Scan(t)", Strategy: "stream", Rows: 3, EstRows: 0, HasEst: true}
	s := &ExecStats{BatchSize: 1, Root: with}
	if out := s.String(); !strings.Contains(out, "est=0") {
		t.Fatalf("explicit zero estimate missing:\n%s", out)
	}
	without := &OpStats{Op: "Scan(t)", Strategy: "stream", Rows: 3}
	s = &ExecStats{BatchSize: 1, Root: without}
	if out := s.String(); !strings.Contains(out, "est=-") {
		t.Fatalf("missing est placeholder:\n%s", out)
	}
}
