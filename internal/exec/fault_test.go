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
// outer, of the first sweep, which reads the scan and keeps its rows, and of
// later sweeps, which replay them and fetch the pages again. Each run must
// return the injected fault, and once the tree is closed leave no frame
// pinned, no goroutine behind and every row slab given back — the kept rows
// included. Some fault must land in a first sweep and some in a replay,
// with caching off and on.
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
		Args: []query.ColRef{{Table: "t1", Col: "u20"}, {Table: "t7", Col: "u20"}}}})
	if err != nil {
		t.Fatal(err)
	}
	query.Analyze(db.Cat, q)
	lo, hi := expr.I(0), expr.I(5)
	outer := &plan.IndexScan{Table: "t1", Col: "a1", Lo: &lo, Hi: &hi, ColRefs: scanNode(t, db.Cat, "t1").ColRefs}
	inner := scanNode(t, db.Cat, "t7")
	root := &plan.Join{Method: plan.NestLoop, Outer: outer, Inner: inner, Primary: q.Preds[0],
		ExpensivePrimary: true, ColRefs: plan.ConcatCols(outer, inner)}
	// run executes root with the n-th read failing (0: none) and reports
	// the error and where the loop was when it came.
	run := func(env *Env, n int64) (reads int64, where string, err error) {
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
		case nl.tape.replaying:
			where = "replay"
		default:
			where = "first sweep"
		}
		err = errors.Join(err, it.Close())
		env.slabs.release()
		reads, _, _ = fi.Counts()
		return reads, where, err
	}
	for _, caching := range []bool{false, true} {
		env := &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(caching, 0)}
		reads, _, err := run(env, 0)
		if err != nil {
			t.Fatal(err)
		}
		landed := map[string]int{}
		for n := int64(1); n <= reads; n++ {
			baseline := runtime.NumGoroutine()
			_, where, err := run(env, n)
			name := fmt.Sprintf("caching=%v read %d of %d (%s)", caching, n, reads, where)
			if !errors.Is(err, storage.ErrInjectedFault) {
				t.Fatalf("%s: want the injected fault, got %v", name, err)
			}
			waitTeardown(t, env, baseline)
			arenaIdle(t, name, env)
			landed[where]++
		}
		t.Logf("caching=%v: %d reads; faults landed %v", caching, reads, landed)
		if landed["first sweep"] == 0 || landed["replay"] == 0 {
			t.Fatalf("caching=%v: faults landed %v; want some in the first sweep and some in a replay", caching, landed)
		}
	}
}
