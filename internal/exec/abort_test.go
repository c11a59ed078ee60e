package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// abortMatrix is the (Parallelism, BatchSize) grid every abort-path
// regression runs over: serial and parallel, tuple-at-a-time and batched.
var abortMatrix = []struct {
	parallelism int
	batchSize   int
}{
	{1, 1}, {1, 256}, {4, 1}, {4, 256},
}

// waitTeardown polls until the executor's teardown contract holds: zero
// pinned buffer-pool frames and the goroutine count back at (or below) the
// pre-query baseline. Parallel workers exit asynchronously after Close, so
// an instantaneous assertion would flake.
func waitTeardown(t *testing.T, env *Env, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		pinned := env.Pool.PinnedFrames()
		g := runtime.NumGoroutine()
		if pinned == 0 && g <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("teardown leak: %d pinned frames, %d goroutines (baseline %d)",
				pinned, g, baseline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// costlyFilterPlan builds Filter(costly100(t1.u10), SeqScan(t1)) — enough
// work per row that a small budget aborts mid-stream.
func costlyFilterPlan(t *testing.T, env *Env) plan.Node {
	t.Helper()
	f, err := env.Cat.Func("costly100")
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(env.Cat, q)
	return &plan.Filter{Input: scanNode(t, env.Cat, "t1"), Pred: q.Preds[0]}
}

// TestBudgetAbortTeardownMatrix is the regression for budget aborts raised
// inside workers: at every (Parallelism, BatchSize) combination the abort
// must fold into DNF, shut the whole fan-in down, unpin every frame, and
// strand no pooled row buffers or goroutines.
func TestBudgetAbortTeardownMatrix(t *testing.T) {
	_, env := newEnv(t, []int{1}, false)
	root := costlyFilterPlan(t, env)
	for _, m := range abortMatrix {
		env.Parallelism, env.BatchSize = m.parallelism, m.batchSize
		env.Budget = 500 // a handful of 100-unit calls
		baseline := runtime.NumGoroutine()
		res, err := Run(env, root)
		if err != nil {
			t.Fatalf("P=%d BS=%d: %v", m.parallelism, m.batchSize, err)
		}
		if !res.DNF {
			t.Fatalf("P=%d BS=%d: budget abort should report DNF", m.parallelism, m.batchSize)
		}
		waitTeardown(t, env, baseline)
	}
	env.Parallelism, env.BatchSize, env.Budget = 1, 0, 0
}

// TestCancelTeardownMatrix runs the same grid under an already-canceled
// context: Run must fail with an error reaching both ErrCanceled and
// context.Canceled, never DNF, and tear down cleanly.
func TestCancelTeardownMatrix(t *testing.T) {
	_, env := newEnv(t, []int{1}, false)
	root := costlyFilterPlan(t, env)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env.Ctx = ctx
	for _, m := range abortMatrix {
		env.Parallelism, env.BatchSize = m.parallelism, m.batchSize
		baseline := runtime.NumGoroutine()
		_, err := Run(env, root)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d BS=%d: want ErrCanceled wrapping context.Canceled, got %v",
				m.parallelism, m.batchSize, err)
		}
		waitTeardown(t, env, baseline)
	}
	env.Ctx, env.Parallelism, env.BatchSize = nil, 1, 0
}

// TestDeadlineTeardownMatrix covers the deadline flavor: an expired
// deadline surfaces as context.DeadlineExceeded through ErrCanceled.
func TestDeadlineTeardownMatrix(t *testing.T) {
	_, env := newEnv(t, []int{1}, false)
	root := costlyFilterPlan(t, env)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	env.Ctx = ctx
	for _, m := range abortMatrix {
		env.Parallelism, env.BatchSize = m.parallelism, m.batchSize
		baseline := runtime.NumGoroutine()
		_, err := Run(env, root)
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("P=%d BS=%d: want ErrCanceled wrapping DeadlineExceeded, got %v",
				m.parallelism, m.batchSize, err)
		}
		waitTeardown(t, env, baseline)
	}
	env.Ctx, env.Parallelism, env.BatchSize = nil, 1, 0
}

// TestCancelDuringJoin cancels mid-join (hash build past the 1024-row
// cadence) to exercise the join operators' abort paths, serial and
// parallel — and once in the probe: the sorted outer's last row cancels the
// query, after every check below the join has run, so the probe's own
// check, every 1024 rows it probes, is the one that must see it.
func TestCancelDuringJoin(t *testing.T) {
	db, env := newEnv(t, []int{1, 9}, false)
	q, err := query.NewQuery([]string{"t1", "t9"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t9", Col: "ua1"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t9")
	j := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, inner)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env.Ctx = ctx
	for _, p := range []int{1, 4} {
		env.Parallelism = p
		baseline := runtime.NumGoroutine()
		_, err := Run(env, j)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("P=%d: want context.Canceled, got %v", p, err)
		}
		waitTeardown(t, env, baseline)
	}
	env.Ctx, env.Parallelism = nil, 1

	t9, err := db.Cat.Table("t9")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls int64
	last := &expr.FuncDef{Name: "cancellast", Arity: 1, Cost: 1, Selectivity: 1, Eval: func([]expr.Value) expr.Value {
		if calls++; calls == t9.Card {
			cancel()
		}
		return expr.B(true)
	}}
	sorted := &plan.TopK{K: -1, Key: query.ColRef{Table: "t9", Col: "ua1"}, Input: &plan.Filter{Input: inner,
		Pred: &query.Predicate{Kind: query.KindFunc, Func: last, Args: []query.ColRef{{Table: "t9", Col: "u10"}}}}}
	probe := &plan.Join{Method: plan.HashJoin, Outer: sorted, Inner: outer, Primary: q.Preds[0], ColRefs: plan.ConcatCols(sorted, outer)}
	env.Ctx = ctx
	if _, err := Run(env, probe); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled by the sorted outer's last row: want context.Canceled from the probe, got %v", err)
	}
	env.Ctx = nil
}
