package exec

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// TestNLReplayFault fails, one run each, every page read of a nested loop
// whose inner heap scan misses a 6-page pool on every sweep: reads of its
// outer, of the first sweep, which reads the scan and tapes its rows, and of
// later sweeps, which the join walks, fetching the pages again — every page
// of every walk among them. Each run must return the injected fault, and
// once the tree is closed leave no frame pinned, no goroutine behind and
// every row slab given back — the taped rows included. The inner is bare t7
// and t7 under a filter its scan absorbs (a gate, whose tallies the walk
// flushes), with caching off and on.
func TestNLReplayFault(t *testing.T) {
	db, err := datagen.Build(datagen.Config{Scale: 0.02, Tables: []int{1, 7}, PoolPages: 6})
	if err != nil {
		t.Fatal(err)
	}
	f, err := db.Cat.Func("costly10join")
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.NewQuery([]string{"t1", "t7"}, []*query.Predicate{{Kind: query.KindFunc, Func: f,
		Args: []query.ColRef{{Table: "t1", Col: "u20"}, {Table: "t7", Col: "u20"}}},
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: query.ColRef{Table: "t7", Col: "ua1"}, Value: expr.I(900)}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	lo, hi := expr.I(0), expr.I(5)
	outer := &plan.IndexScan{Table: "t1", Col: "a1", Lo: &lo, Hi: &hi, ColRefs: scanNode(t, db.Cat, "t1").ColRefs}
	tab7, err := db.Cat.Table("t7")
	if err != nil {
		t.Fatal(err)
	}
	// run executes root with the n-th read failing (0: none) and reports
	// the error and where the loop was when it came.
	run := func(env *Env, root plan.Node, n int64) (reads int64, where string, err error) {
		if err := db.Pool.EvictUnpinned(); err != nil {
			t.Fatal(err)
		}
		fi := storage.NewFaultInjector(storage.FaultConfig{FailReadN: n})
		db.Disk.SetFaults(fi)
		defer db.Disk.SetFaults(nil)
		env.begin()
		it, err := Build(env, root)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = collect(env, it, root.Card(), true)
		switch nl := it.(*nlJoinIter); {
		case nl.tape == nil:
			where = "outer"
		case nl.walking:
			where = "walk"
		default:
			where = "first sweep"
		}
		err = errors.Join(err, it.Close())
		env.slabs.release()
		reads, _, _ = fi.Counts()
		return reads, where, err
	}
	for _, inner := range []plan.Node{scanNode(t, db.Cat, "t7"), &plan.Filter{Input: scanNode(t, db.Cat, "t7"), Pred: q.Preds[1]}} {
		root := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, Primary: q.Preds[0],
			ExpensivePrimary: true, ColRefs: plan.ConcatCols(outer, inner)}
		for _, caching := range []bool{false, true} {
			env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(caching, 0)}
			sweeps, err := Run(env, outer)
			if err != nil {
				t.Fatal(err)
			}
			reads, _, err := run(env, root, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(env.gates[plan.Base(inner)]) == 0 != (inner == plan.Base(inner)) {
				t.Fatalf("%s: the inner scan runs gates %q", inner.Describe(), gateKinds(env.gates[plan.Base(inner)]))
			}
			landed := map[string]int{}
			for n := int64(1); n <= reads; n++ {
				baseline := runtime.NumGoroutine()
				_, where, err := run(env, root, n)
				name := fmt.Sprintf("%s caching=%v read %d of %d (%s)", inner.Describe(), caching, n, reads, where)
				if !errors.Is(err, storage.ErrInjectedFault) {
					t.Fatalf("%s: want the injected fault, got %v", name, err)
				}
				waitTeardown(t, env, baseline)
				arenaIdle(t, name, env)
				landed[where]++
			}
			t.Logf("%s caching=%v: %d reads; faults landed %v", inner.Describe(), caching, reads, landed)
			if walked := (sweeps.Stats.Rows - 1) * tab7.Heap.NumPages(); landed["first sweep"] == 0 || landed["walk"] < walked {
				t.Fatalf("caching=%v: faults landed %v; want some in the first sweep and %d, one per page, in the walks",
					caching, landed, walked)
			}
		}
	}
}
