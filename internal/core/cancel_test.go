package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/audb/audb/internal/expr"
	"github.com/audb/audb/internal/ra"
	"github.com/audb/audb/internal/rangeval"
	"github.com/audb/audb/internal/schema"
	"github.com/audb/audb/internal/testutil"
	"github.com/audb/audb/internal/types"
)

// uncertainJoinInput builds a relation whose join attribute is always
// uncertain, in narrow sliding ranges: an equi-join on it goes through the
// swept quadrants, and each row overlaps a few of the other side's.
func uncertainJoinInput(name string, rows int) *Relation {
	r := New(schema.New(name+"k", name+"v"))
	for i := 0; i < rows; i++ {
		r.Add(Tuple{
			Vals: rangeval.Tuple{
				rangeval.New(types.Int(int64(i)), types.Int(int64(i+1)), types.Int(int64(i+2))),
				rangeval.Certain(types.Int(int64(i % 31))),
			},
			M: One,
		})
	}
	return r
}

// wideInput is n rows whose first attribute spans [0, n], so every pair
// overlaps: the case no index can prune, which must still cancel.
func wideInput(name string, n int) *Relation {
	r := New(schema.New(name+"k", name+"v"))
	for i := 0; i < n; i++ {
		r.Add(Tuple{Vals: rangeval.Tuple{
			rangeval.New(types.Int(0), types.Int(int64(i)), types.Int(int64(n))),
			rangeval.Certain(types.Int(int64(i % 7))),
		}, M: One})
	}
	return r
}

// cancelCond joins on the first attributes with a residual conjunct that
// no pair satisfies. Over wideInput every pair is a join candidate and
// none is kept: quadratic work, no output.
func cancelCond() expr.Expr {
	return expr.And(
		expr.Eq(expr.Col(0, "lk"), expr.Col(2, "rk")),
		expr.Lt(expr.Add(expr.Col(1, "lv"), expr.Col(3, "rv")), expr.CInt(0)),
	)
}

func cancelPlan() ra.Node {
	return &ra.Agg{
		Child: &ra.Join{
			Left:  &ra.Scan{Table: "l"},
			Right: &ra.Scan{Table: "r"},
			Cond:  cancelCond(),
		},
		GroupBy: []int{1},
		Aggs:    []ra.AggSpec{{Fn: ra.AggCount, Name: "n"}},
	}
}

// TestExecCancellation: a mid-flight cancellation of a long join +
// aggregation must surface ctx.Err() promptly in both the serial and the
// parallel executor, with every worker goroutine joined.
func TestExecCancellation(t *testing.T) {
	rows := 2500
	if testing.Short() {
		rows = 1000
	}
	db := DB{"l": wideInput("l", rows), "r": wideInput("r", rows)}
	for _, workers := range []int{1, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testutil.NoLeaks(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(15 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := Exec(ctx, cancelPlan(), db, Options{Workers: workers})
			elapsed := time.Since(start)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v (after %s)", err, elapsed)
			}
			if elapsed > time.Second {
				t.Fatalf("cancellation took %s, want well under a second", elapsed)
			}
		})
	}
}

// TestExecPreCancelled: operators must not start work under an already
// cancelled context, including the per-operator paths (scan, select,
// distinct, diff, orderby) that never reach a chunked loop.
func TestExecPreCancelled(t *testing.T) {
	r := uncertainJoinInput("r", 8)
	db := DB{"l": uncertainJoinInput("l", 8), "r": r}
	plans := []ra.Node{
		&ra.Scan{Table: "r"},
		&ra.Select{Child: &ra.Scan{Table: "r"}, Pred: expr.Leq(expr.Col(0, "rk"), expr.CInt(3))},
		&ra.Distinct{Child: &ra.Scan{Table: "r"}},
		&ra.Diff{Left: &ra.Scan{Table: "r"}, Right: &ra.Scan{Table: "r"}},
		&ra.OrderBy{Child: &ra.Scan{Table: "r"}, Keys: []int{0}},
		cancelPlan(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, plan := range plans {
		if _, err := Exec(ctx, plan, db, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%T: want context.Canceled, got %v", plan, err)
		}
	}
	// A nil context falls back to context.Background and succeeds.
	var nilCtx context.Context
	if _, err := Exec(nilCtx, &ra.Scan{Table: "r"}, db, Options{}); err != nil {
		t.Errorf("nil ctx: %v", err)
	}
}

// TestNilContextCompression: the compressed join path also respects
// cancellation (it routes through split + nested join).
func TestCompressedJoinCancellation(t *testing.T) {
	rows := 1500
	if testing.Short() {
		rows = 600
	}
	db := DB{"l": uncertainJoinInput("l", rows), "r": uncertainJoinInput("r", rows)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Exec(ctx, cancelPlan(), db, Options{JoinCompression: 8, AggCompression: 8})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("compressed path: want context.Canceled, got %v", err)
	}
}
