package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// runSerialAndParallel executes root twice on the same Env — serially, then
// with 4 workers — and returns both results.
func runSerialAndParallel(t *testing.T, env *Env, root plan.Node) (*Result, *Result) {
	t.Helper()
	env.Parallelism = 1
	serial, err := Run(env, root)
	if err != nil {
		t.Fatal(err)
	}
	env.Parallelism = 4
	par, err := Run(env, root)
	if err != nil {
		t.Fatal(err)
	}
	env.Parallelism = 1
	return serial, par
}

func TestParallelSeqScanMatchesSerial(t *testing.T) {
	db, env := newEnv(t, []int{3}, false)
	root := scanNode(t, db.Cat, "t3")
	serial, par := runSerialAndParallel(t, env, root)
	sameRowMultiset(t, par.Rows, serial.Rows)
	if got, want := par.Stats.IO.Total(), serial.Stats.IO.Total(); got != want {
		t.Fatalf("parallel scan I/O = %d, serial = %d", got, want)
	}
	if got, want := par.Stats.Charged(), serial.Stats.Charged(); got != want {
		t.Fatalf("parallel scan charged = %v, serial = %v", got, want)
	}
}

func TestParallelFilterMatchesSerial(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	f, _ := db.Cat.Func("costly10")
	q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
	}})
	query.Analyze(db.Cat, q)
	root := &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[0]}
	serial, par := runSerialAndParallel(t, env, root)
	sameRowMultiset(t, par.Rows, serial.Rows)
	if got, want := par.Stats.Invocations["costly10"], serial.Stats.Invocations["costly10"]; got != want {
		t.Fatalf("parallel invocations = %d, serial = %d", got, want)
	}
	if got, want := par.Stats.Charged(), serial.Stats.Charged(); got != want {
		t.Fatalf("parallel filter charged = %v, serial = %v", got, want)
	}
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	db, env := newEnv(t, []int{1, 3}, false)
	q, _ := query.NewQuery([]string{"t1", "t3"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t3", Col: "ua1"},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t3")
	j := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, inner)
	serial, par := runSerialAndParallel(t, env, j)
	sameRowMultiset(t, par.Rows, serial.Rows)
	// Grace-hash spill is charged per tuple on both sides; the parallel
	// operator must count exactly the same tuples.
	if got, want := par.Stats.SyntheticIO, serial.Stats.SyntheticIO; got != want {
		t.Fatalf("parallel spill = %v, serial = %v", got, want)
	}
	if got, want := par.Stats.Charged(), serial.Stats.Charged(); got != want {
		t.Fatalf("parallel join charged = %v, serial = %v", got, want)
	}
}

func TestParallelFilterBudgetDNF(t *testing.T) {
	db, env := newEnv(t, []int{1}, false)
	f, _ := db.Cat.Func("costly100")
	q, _ := query.NewQuery([]string{"t1"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t1", Col: "u10"}},
	}})
	query.Analyze(db.Cat, q)
	root := &plan.Filter{Input: scanNode(t, db.Cat, "t1"), Pred: q.Preds[0]}
	env.Parallelism = 4
	env.Budget = 500 // a handful of 100-unit calls
	res, err := Run(env, root)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatal("parallel filter past budget should report DNF")
	}
	env.Parallelism = 1
	env.Budget = 0
}

func TestParallelHashJoinBudgetDNFDuringBuild(t *testing.T) {
	// The budget trips at the inner scan's first pages, inside the build.
	db, env := newEnv(t, []int{1, 9}, false)
	q, _ := query.NewQuery([]string{"t1", "t9"}, []*query.Predicate{{
		Kind: query.KindJoinCmp, Op: expr.OpEQ,
		Left: query.ColRef{Table: "t1", Col: "ua1"}, Right: query.ColRef{Table: "t9", Col: "ua1"},
	}})
	query.Analyze(db.Cat, q)
	outer := scanNode(t, db.Cat, "t1")
	inner := scanNode(t, db.Cat, "t9")
	j := &plan.Join{Method: plan.HashJoin, Outer: outer, Inner: inner, Primary: q.Preds[0]}
	j.ColRefs = plan.ConcatCols(outer, inner)
	env.Parallelism = 4
	env.Budget = 3 // below even the inner scan's I/O
	res, err := Run(env, j)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DNF {
		t.Fatal("parallel hash join past budget should report DNF")
	}
	env.Parallelism = 1
	env.Budget = 0
}

// TestParallelCloseEarly abandons a parallel query mid-stream; shutdown must
// not deadlock or leak (the race detector and goroutine scheduler cover the
// rest).
func TestParallelCloseEarly(t *testing.T) {
	db, env := newEnv(t, []int{3}, false)
	env.Parallelism = 4
	env.begin()
	it, err := Build(env, scanNode(t, db.Cat, "t3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := next(it); err != nil || !ok {
			t.Fatalf("next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil { // Close must be idempotent
		t.Fatal(err)
	}
	env.Parallelism = 1

	// A worker whose filter rejects every row never has a message to send,
	// so it must notice the shutdown inside its scan. The predicate passes
	// the first messages' worth of rows and then holds every worker at a
	// gate, which opens only once Close has signalled the stop: what runs
	// after that is bounded by the scan's 1024-record cadence, not by the
	// table.
	big, err := datagen.Build(datagen.Config{Scale: 0.3, Tables: []int{10}})
	if err != nil {
		t.Fatal(err)
	}
	env = &Env{Cat: big.Cat, Pool: big.Pool, Cache: pcache.NewManager(false, 0), Parallelism: 4}
	t10, _ := big.Cat.Table("t10")
	var calls atomic.Int64
	gate := make(chan struct{})
	passing := int64(env.Parallelism * env.exchangeBatch())
	f := &expr.FuncDef{Name: "firstrows", Arity: 1, Cost: 1, Selectivity: 1, Eval: func([]expr.Value) expr.Value {
		if calls.Add(1) <= passing {
			return expr.B(true)
		}
		<-gate
		return expr.B(false)
	}}
	root := &plan.Filter{Input: scanNode(t, big.Cat, "t10"), Pred: &query.Predicate{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t10", Col: "u10"}}, CostPerTuple: 1}}
	baseline := runtime.NumGoroutine()
	env.begin()
	if it, err = Build(env, root); err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if n, err := it.NextBatch(make([]expr.Row, 1)); n != 1 || err != nil {
		t.Fatalf("first NextBatch: n=%d err=%v", n, err)
	}
	x := it.(*exchangeIter)
	go func() {
		for !x.fan.stopping() {
			runtime.Gosched()
		}
		close(gate)
	}()
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	ran, read := calls.Load(), env.ioStats().Total()
	if bound := passing + int64(env.Parallelism)*(1024+int64(env.exchangeBatch())); ran > bound || ran >= t10.Card {
		t.Fatalf("%d invocations after an early Close, want at most %d of the table's %d", ran, bound, t10.Card)
	}
	if pages := int64(t10.Heap.NumPages()); read >= pages {
		t.Fatalf("%d page reads after an early Close, the table has %d", read, pages)
	}
	time.Sleep(10 * time.Millisecond)
	if calls.Load() != ran || env.ioStats().Total() != read {
		t.Fatalf("workers ran on after Close: invocations %d -> %d, reads %d -> %d", ran, calls.Load(), read, env.ioStats().Total())
	}
	waitTeardown(t, env, baseline)
}

// TestParallelKeepsOrderMergeJoinReliesOn: a merge-join side the plan marks
// as arriving sorted is built from serial operators under Parallelism > 1 —
// a parallel filter or hash join between the index scan that makes the
// order and the merge join that consumes it would lose matches.
func TestParallelKeepsOrderMergeJoinReliesOn(t *testing.T) {
	db, env := newEnv(t, []int{2, 3, 9}, false)
	f, _ := db.Cat.Func("costly1")
	sorted := func(table string) *plan.IndexScan {
		return &plan.IndexScan{Table: table, Col: "a1", ColRefs: scanNode(t, db.Cat, table).ColRefs}
	}
	q, _ := query.NewQuery([]string{"t9"}, []*query.Predicate{{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t9", Col: "u10"}},
	}})
	query.Analyze(db.Cat, q)
	// Outer: an expensive filter over t9 in a1 order. Inner: a hash join
	// whose outer side carries t3's a1 order.
	outer := &plan.Filter{Input: sorted("t9"), Pred: q.Preds[0]}
	inner := equiJoin(t, db.Cat, plan.HashJoin, sorted("t3"), scanNode(t, db.Cat, "t2"),
		query.ColRef{Table: "t3", Col: "ua1"}, query.ColRef{Table: "t2", Col: "ua1"})
	root := equiJoin(t, db.Cat, plan.MergeJoin, outer, inner,
		query.ColRef{Table: "t9", Col: "a1"}, query.ColRef{Table: "t3", Col: "a1"})
	root.SortOuter, root.SortInner = false, false
	for i := 0; i < 20; i++ {
		serial, par := runSerialAndParallel(t, env, root)
		if len(serial.Rows) == 0 {
			t.Fatal("the join is empty; the test proves nothing")
		}
		sameRowMultiset(t, par.Rows, serial.Rows)
		if got, want := par.Stats.Charged(), serial.Stats.Charged(); got != want {
			t.Fatalf("parallel charged = %v, serial = %v", got, want)
		}
	}
}

// TestParallelWorkerPanicReachesCaller: a UDF that panics inside an
// exchange's worker panics Run on the caller's goroutine, with the UDF's own
// value — a panic on a worker's goroutine would end the process, past any
// recover — and by then the exchange is closed: no worker goroutine runs on
// and no page stays pinned.
func TestParallelWorkerPanicReachesCaller(t *testing.T) {
	_, env := newEnv(t, []int{2}, false)
	env.Parallelism = 3
	type boom struct{ at int64 }
	f := &expr.FuncDef{Name: "boom", Arity: 1, Cost: 1, Selectivity: 1, Eval: func(args []expr.Value) expr.Value {
		if args[0].I == 150 {
			panic(boom{args[0].I})
		}
		return expr.B(true)
	}}
	root := &plan.Filter{Input: scanNode(t, env.Cat, "t2"), Pred: &query.Predicate{
		Kind: query.KindFunc, Func: f, Args: []query.ColRef{{Table: "t2", Col: "ua1"}}, CostPerTuple: 1}}
	if !env.segment(root) {
		t.Fatal("the filter heads no segment: no worker runs it")
	}
	for _, bs := range []int{1, 256} {
		env.BatchSize = bs
		baseline := runtime.NumGoroutine()
		got := func() (p any) {
			defer func() { p = recover() }()
			_, err := Run(env, root)
			t.Fatalf("Run returned (err %v) instead of panicking", err)
			return nil
		}()
		if got != (boom{150}) {
			t.Fatalf("BatchSize %d: the caller recovered %#v, want the UDF's boom{150}", bs, got)
		}
		waitTeardown(t, env, baseline)
	}
}
