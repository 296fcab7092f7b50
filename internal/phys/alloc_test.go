package phys

import (
	"context"
	"testing"

	"github.com/audb/audb/internal/core"
	"github.com/audb/audb/internal/ra"
)

const allocRows = 20000

// chainSetup is the acceptance-criteria streaming chain:
// Scan→Select→Project→Limit over a table large enough that materializing
// intermediates dominates allocation.
func chainSetup() (core.DB, ra.Node) {
	return seqDB(allocRows, 23), chainPlan(64)
}

// TestPipelinedAllocatesLessThanMaterialized is the CI gate of the pipe
// benchmarks: on the streaming chain, the pipelined executor must not
// allocate more than the materializing reference (it allocates strictly
// less: no intermediate relations, reused batch buffers, O(limit) merge
// state). Run with Workers=1 so both executors stay on one goroutine and
// AllocsPerRun counts deterministically.
func TestPipelinedAllocatesLessThanMaterialized(t *testing.T) {
	db, plan := chainSetup()
	ctx := context.Background()
	opts := core.Options{Workers: 1}

	pipelined := testing.AllocsPerRun(3, func() {
		if _, err := Exec(ctx, plan, db, Options{Exec: opts}); err != nil {
			t.Fatal(err)
		}
	})
	materialized := testing.AllocsPerRun(3, func() {
		if _, err := core.Exec(ctx, plan, db, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("streaming chain allocs/op: pipelined %.0f, materialized %.0f (%.1fx)",
		pipelined, materialized, materialized/pipelined)
	if pipelined > materialized {
		t.Fatalf("pipelined executor allocates more than the materializing one: %.0f > %.0f allocs/op",
			pipelined, materialized)
	}
}

// TestTopKAllocatesLessThanSort: the fused ORDER BY + LIMIT must beat the
// full sort + merge + truncate on allocations (O(k) candidate state vs a
// sorted copy and a full merge map).
func TestTopKAllocatesLessThanSort(t *testing.T) {
	db := seqDB(allocRows, 23)
	plan := topkPlan(16, false)
	ctx := context.Background()
	opts := core.Options{Workers: 1}

	pipelined := testing.AllocsPerRun(3, func() {
		if _, err := Exec(ctx, plan, db, Options{Exec: opts}); err != nil {
			t.Fatal(err)
		}
	})
	materialized := testing.AllocsPerRun(3, func() {
		if _, err := core.Exec(ctx, plan, db, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("top-k allocs/op: pipelined %.0f, materialized %.0f (%.1fx)",
		pipelined, materialized, materialized/pipelined)
	if pipelined > materialized {
		t.Fatalf("fused top-k allocates more than sort+limit: %.0f > %.0f allocs/op", pipelined, materialized)
	}
}

// The same plan on both executors, for `go test -bench Pipe -benchmem`.
func benchExec(b *testing.B, pipelined bool, plan ra.Node) {
	db := seqDB(allocRows, 23)
	ctx := context.Background()
	opts := core.Options{Workers: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if pipelined {
			_, err = Exec(ctx, plan, db, Options{Exec: opts})
		} else {
			_, err = core.Exec(ctx, plan, db, opts)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipeChainPipelined(b *testing.B)    { benchExec(b, true, chainPlan(64)) }
func BenchmarkPipeChainMaterialized(b *testing.B) { benchExec(b, false, chainPlan(64)) }
func BenchmarkPipeTopKPipelined(b *testing.B)     { benchExec(b, true, topkPlan(16, false)) }
func BenchmarkPipeTopKMaterialized(b *testing.B)  { benchExec(b, false, topkPlan(16, false)) }
