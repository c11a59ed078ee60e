// Package exec is the Volcano-style execution engine: it interprets physical
// plan trees over the paged storage substrate, evaluates predicates with
// optional predicate caching, counts user-defined function invocations, and
// reports the paper's measurement: charged cost = physical page I/Os +
// synthetic spill I/Os + Σ (invocations × per-call cost).
//
// With Env.Parallelism > 1 the engine adds intra-query parallelism as one
// operator, the exchange (parallel.go): it runs a serial segment of the plan
// — heap scan, filters, hash-join probes — once per worker, each copy over
// its own share of the input. Charged-cost accounting is parallelism-
// invariant: page I/O, spill, and invocation counters are atomic and
// tuple-exact, so with predicate caching off a parallel run charges
// bit-for-bit what the serial run charges.
package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// ErrBudgetExceeded aborts a query whose charged cost passed the budget —
// how the harness reproduces the paper's "PullUp used up all available swap
// space and never completed" for Query 5.
var ErrBudgetExceeded = errors.New("exec: charged-cost budget exceeded")

// ErrCanceled wraps the context's cause when a query is aborted by
// cancellation or deadline; callers unwrap it (errors.Is) to reach
// context.Canceled or context.DeadlineExceeded.
var ErrCanceled = errors.New("exec: query canceled")

// Env is the execution context of one query. Run one query at a time per
// Env; within a query, the workers of the engine's own exchanges consume the
// Env from multiple goroutines (its accounting is concurrency-safe). All
// per-query mutable state — I/O accounting, synthetic charges, UDF
// invocation counters, predicate-cache contents — lives here, so any number
// of Envs over one catalog, pool, and disk execute concurrently without
// observing each other's charges.
type Env struct {
	// Ctx, when non-nil, cancels the query: the first abort check
	// (checkAbort) that finds it done raises the query's stop flag with its
	// cause, and every later check returns that, so a canceled or timed-out
	// query unwinds promptly through the ordinary error path — serial,
	// parallel, and batched alike — with no extra charges on the fault-free
	// path.
	Ctx context.Context
	// Cat resolves tables and functions.
	Cat *catalog.Catalog
	// Pool is the buffer pool all page access goes through. It is shared
	// between sessions; the query's own I/O accounting comes from the
	// per-Env tracker (see Charged), never from shared pool state.
	Pool *storage.BufferPool
	// Cache is the predicate cache (may be nil or disabled).
	Cache *pcache.Manager
	// Budget aborts execution when the charged cost exceeds it (0 = none):
	// the charge that crosses it raises the query's stop flag (OnCharge).
	Budget float64
	// CountOnly discards result rows, keeping only the count.
	CountOnly bool
	// Parallelism is the worker count of every exchange Build plants. 0 or 1
	// executes the classic serial Volcano tree — the default, which
	// reproduces the paper's figures byte-for-byte.
	Parallelism int
	// BatchSize is the width of the batches operators hand up: 0 uses
	// DefaultBatchSize, 1 is one row per NextBatch call (through the same
	// code as any other width), larger values that many rows per call.
	// Charged cost is per-tuple and operators preserve serial evaluation
	// order, so results and charged cost are identical at every setting.
	BatchSize int
	// Profile enables per-operator runtime profiling (EXPLAIN ANALYZE v2):
	// every operator is wrapped in an instrumented iterator measuring wall
	// time and attributing physical I/O, and predicates count evaluations,
	// invocations, and cache traffic per plan node. Profiling is
	// observational only — charged cost, results, and row order are
	// byte-identical with it on or off; wall time is never charged. Off by
	// default, keeping the hot paths allocation-free.
	Profile bool
	// Transfer enables the predicate-transfer pre-filter pass: before the
	// main plan runs, Bloom filters flood selectivity across the join
	// graph's equality classes and the plan's scans consult them to drop
	// non-joining rows early (DESIGN.md §16). Filter builds and probes are
	// charged into the cost model (never free), and the pass is serial and
	// deterministic, so results and charged cost stay invariant across
	// Parallelism and BatchSize. Off by default: byte-identical execution.
	Transfer bool

	// stop is the query's one stop flag (DESIGN.md §13): nil while it runs,
	// then the first reason it must stop — ErrBudgetExceeded, raised by the
	// charge that crossed the budget, or the context's cause, raised by the
	// first abort check that found it done. Every later check returns it.
	stop atomic.Pointer[error]
	// tracker is the query's private I/O ledger: a cold-pool simulation with
	// the shared pool's exact replacement geometry, charging a read exactly
	// where a solo run on a freshly flushed pool would have paid one. It
	// makes charged cost independent of what other sessions keep resident —
	// and byte-identical to the query's single-session figure.
	tracker *storage.IOTracker
	// funcCalls counts this query's UDF invocations per function — the state
	// that used to live (shared, racy across sessions) on the catalog's
	// FuncDef objects. Guarded by funcMu; per-function counters are atomics,
	// each resolved once per compiled predicate, so an invocation takes no
	// lock and no map lookup.
	funcMu    sync.Mutex
	funcCalls map[*expr.FuncDef]*atomic.Int64
	// syntheticIO accumulates bulk synthetic charges (external-sort spill);
	// spillTuples counts per-tuple hash-partition charges so their total is
	// a single count×constant product — identical in any evaluation order.
	syntheticMu sync.Mutex
	syntheticIO float64
	spillTuples atomic.Int64
	// bloomAdds and bloomProbes count predicate-transfer filter operations;
	// like spillTuples, totals are count×constant products, so the charge is
	// exact in any evaluation order (parallelism/batching-invariant).
	bloomAdds   atomic.Int64
	bloomProbes atomic.Int64
	// transfer holds the prepass's filters and counters for the running
	// query (nil when Transfer is off or the plan has no transferable join).
	transfer *transferState
	// ordered holds the plan nodes Build found must run as serial operators
	// (orderedNodes); nil when execution is serial anyway. Written once,
	// before execution starts; nested-loop rebuilds only read it.
	ordered map[plan.Node]bool
	// runs holds, by scan and by filter, the cheap comparisons Build found the
	// scans absorb (recordRuns); written once by Build, like ordered.
	runs map[plan.Node]*recordRun
	// thin holds, for each heap scan Build found feeding an operator that
	// decides a row's fate on a few columns and copies the survivors out, the
	// columns the scan decodes and where the rest are found later (thinScan);
	// a scan with no entry decodes whole rows. Written once by Build, like
	// ordered.
	thin map[*plan.SeqScan]*thinScan
	// gates holds, by heap or index scan, the gates the scan runs on each
	// record, in order, and by merge join the one gate it feeds (planGates);
	// written once by Build, like ordered, and only what a join hands its
	// gate while it runs changes.
	gates map[plan.Node][]recordGate
	// loops holds, by nested loop, its sweep memo and the heap scan it reads
	// once and replays (planLoops); written once by Build, like ordered.
	loops map[*plan.Join]loopPlan
	// slabs owns every row the query carves below its result-producing
	// operator (rowAlloc); Run releases it on every exit, once the iterator
	// tree is closed and its goroutines joined.
	slabs slabPool

	// prof holds per-node runtime counters, assembled into Result.Profile;
	// non-nil only while Profile is on, so the default path never consults
	// or allocates it.
	profMu sync.Mutex
	prof   map[plan.Node]*opCounters
}

// workers returns the effective parallel fan-out (1 = serial).
func (e *Env) workers() int {
	if e.Parallelism > 1 {
		return e.Parallelism
	}
	return 1
}

// batchSize returns the effective NextBatch width.
func (e *Env) batchSize() int {
	if e.BatchSize == 0 {
		return DefaultBatchSize
	}
	return max(e.BatchSize, 1)
}

// exchangeBatch is the rows-per-message width of an exchange's channel: one
// hop moves up to one full batch, and the message is sized for at least
// parallelBatch rows — per-row sends would drown the pipeline in
// synchronization.
func (e *Env) exchangeBatch() int { return max(e.batchSize(), parallelBatch) }

// begin resets the per-query state at query start: a lowered stop flag, a
// fresh private I/O tracker (under a budget, telling OnCharge of each I/O),
// fresh UDF counters, a cleared predicate cache. The query is *measured*
// cold — the tracker simulates a freshly flushed private pool — without
// flushing the shared pool other sessions are reading, so the figures match
// the paper's cold runs while sessions keep their warm pages.
// Callers that need a *physically* cold start (fault-injection determinism)
// evict explicitly via DB.EvictPool.
func (e *Env) begin() {
	e.stop.Store(nil)
	e.tracker = storage.NewIOTracker(e.Pool)
	if e.Budget > 0 {
		e.tracker.Acct().SetHook(e)
	}
	e.funcMu.Lock()
	e.funcCalls = map[*expr.FuncDef]*atomic.Int64{}
	e.funcMu.Unlock()
	if e.Cache != nil {
		e.Cache.Reset()
	}
	e.syntheticIO = 0
	e.spillTuples.Store(0)
	e.bloomAdds.Store(0)
	e.bloomProbes.Store(0)
	e.transfer = nil
	// The profile of a query that never reached Build (a prepass DNF) reads
	// runs, so the last query's must not survive.
	e.runs = nil
	e.slabs.release() // a no-op after Run; callers that drive Build themselves may not have
	if e.Profile {
		e.prof = map[plan.Node]*opCounters{}
	} else {
		e.prof = nil
	}
}

// heap returns tab's heap file as a view whose page accesses charge into
// this query's private ledger. All executor table access goes through it.
func (e *Env) heap(tab *catalog.Table) *storage.HeapFile {
	return tab.Heap.WithTracker(e.tracker)
}

// index returns t as a probe view charging leaf I/Os into this query's
// private ledger instead of the shared tree's accountant.
func (e *Env) index(t *btree.Tree) *btree.Tree {
	return t.WithAcct(e.tracker.Acct())
}

// ioStats returns the page I/O charged to this query so far; the profiler
// diffs it around operator calls to attribute I/O per plan node.
func (e *Env) ioStats() storage.IOStats {
	return e.tracker.Stats()
}

// invoke evaluates f on args, counting the invocation in calls — the
// query's own counter for f (funcCount, resolved by compilePred), never the
// catalog's shared FuncDef state — and routing any real I/O the function
// performs — subquery predicates reading pages — into the query's private
// tracker. Under a budget the call is a charge: the one that crosses the
// budget, and every call after it, returns the stop flag's reason without
// evaluating f.
func (e *Env) invoke(f *expr.FuncDef, calls *atomic.Int64, args []expr.Value) (expr.Value, error) {
	calls.Add(1)
	if e.Budget > 0 {
		e.OnCharge()
		if err := e.stopped(); err != nil {
			return expr.Value{}, err
		}
	}
	if f.EvalIO != nil {
		return f.EvalIO(e.tracker, args)
	}
	if f.EvalErr != nil {
		return f.EvalErr(args)
	}
	return f.Eval(args), nil
}

// funcCount returns this query's invocation counter for f, creating it on
// first use.
func (e *Env) funcCount(f *expr.FuncDef) *atomic.Int64 {
	e.funcMu.Lock()
	c, ok := e.funcCalls[f]
	if !ok {
		c = new(atomic.Int64)
		e.funcCalls[f] = c
	}
	e.funcMu.Unlock()
	return c
}

// funcCharge returns Σ invocations × per-call cost over this query's own
// counters. RealWork functions charge zero: their page traffic is metered
// directly through the tracker.
func (e *Env) funcCharge() float64 {
	e.funcMu.Lock()
	defer e.funcMu.Unlock()
	var total float64
	for f, c := range e.funcCalls {
		if !f.RealWork {
			total += float64(c.Load()) * f.Cost
		}
	}
	return total
}

// ChargeSynthetic adds simulated spill I/O (external sort runs, hash
// partitions) in random-I/O units.
func (e *Env) ChargeSynthetic(units float64) {
	e.syntheticMu.Lock()
	e.syntheticIO += units
	e.syntheticMu.Unlock()
	e.OnCharge()
}

// ChargeSpill charges n tuples' worth of Grace-hash partition spill
// (cost.HashSpillPerTuple each). The charge is a counter, not a float
// accumulation, so the total is exact and independent of the order parallel
// workers charge it in.
func (e *Env) ChargeSpill(n int) { e.spillTuples.Add(int64(n)); e.OnCharge() }

// ChargeBloomAdd charges n predicate-transfer filter insertions
// (cost.BloomAddPerTuple each); counter-based like ChargeSpill, so the
// total is exact in any evaluation order.
func (e *Env) ChargeBloomAdd(n int) { e.bloomAdds.Add(int64(n)); e.OnCharge() }

// ChargeBloomProbe charges n predicate-transfer filter probes
// (cost.BloomProbePerTuple each).
func (e *Env) ChargeBloomProbe(n int) { e.bloomProbes.Add(int64(n)); e.OnCharge() }

// OnCharge is the budget's one decision (DESIGN.md §13), told of every
// charge once it is counted: a page read or write of the query's I/O ledger
// (a storage.ChargeHook, set by begin under a budget), a UDF call (invoke),
// a synthetic, spill or Bloom charge. Under a budget, the charge that takes
// the query past it raises the stop flag with ErrBudgetExceeded.
func (e *Env) OnCharge() {
	if e.Budget <= 0 {
		return
	}
	if chargeHook != nil {
		chargeHook(e)
	}
	if e.stop.Load() == nil && e.Charged() > e.Budget {
		e.raise(ErrBudgetExceeded)
	}
}

// synthetic returns the synthetic I/O charged so far.
func (e *Env) synthetic() float64 {
	e.syntheticMu.Lock()
	bulk := e.syntheticIO
	e.syntheticMu.Unlock()
	return bulk + float64(e.spillTuples.Load())*cost.HashSpillPerTuple +
		float64(e.bloomAdds.Load())*cost.BloomAddPerTuple +
		float64(e.bloomProbes.Load())*cost.BloomProbePerTuple
}

// Charged returns the charged cost so far: the query's page I/Os plus
// synthetic I/O plus function-invocation charges — all read from per-Env
// state, so concurrent sessions' figures never bleed into each other. Safe
// to call from parallel workers.
func (e *Env) Charged() float64 {
	return float64(e.tracker.Stats().Total()) + e.synthetic() + e.funcCharge()
}

// raise sets the stop flag to err unless a reason is there already: the
// first reason to stop wins.
func (e *Env) raise(err error) { e.stop.CompareAndSwap(nil, &err) }

// stopped returns the stop flag's reason, nil while the query may go on.
func (e *Env) stopped() error {
	if err := e.stop.Load(); err != nil {
		return *err
	}
	return nil
}

// checkAbort is the operators' abort check, a read of the stop flag: it
// returns the flag's reason — ErrBudgetExceeded, or an ErrCanceled-wrapped
// context cause, raising the flag first when Ctx is done. It charges and
// locks nothing, so operators call it wherever their loops can run without
// charging (DESIGN.md §13). A stop aborts through the ordinary error path,
// so iterator teardown runs as it does for any other execution error.
func (e *Env) checkAbort() error {
	if pollHook != nil {
		pollHook(e)
	}
	if err := e.stopped(); err != nil {
		return err
	}
	if e.Ctx != nil {
		select {
		case <-e.Ctx.Done():
			e.raise(fmt.Errorf("%w: %w", ErrCanceled, context.Cause(e.Ctx)))
			return e.stopped()
		default:
		}
	}
	return nil
}

// pollHook and chargeHook, when set, are called at each abort check
// (checkAbort) and at each charge a budget is compared with (OnCharge): a
// test numbers them by site (TestAbortEverySite). Nil outside tests.
var pollHook, chargeHook func(*Env)

// nodeProf returns the per-node profiling counters, creating them on first
// use. Only called while profiling is on; safe for concurrent Build calls
// (nested-loop joins rebuild their inner subtree mid-query, possibly from a
// parallel operator's worker goroutine).
func (e *Env) nodeProf(n plan.Node) *opCounters {
	e.profMu.Lock()
	defer e.profMu.Unlock()
	c, ok := e.prof[n]
	if !ok {
		c = &opCounters{}
		e.prof[n] = c
	}
	return c
}

// Stats reports the resources consumed by one executed query.
type Stats struct {
	// IO is the physical page traffic.
	IO storage.IOStats
	// SyntheticIO is simulated spill traffic in I/O units.
	SyntheticIO float64
	// FuncCharge is Σ invocations × per-call cost.
	FuncCharge float64
	// Invocations maps function name → call count.
	Invocations map[string]int64
	// CacheHits and CacheMisses report predicate-cache traffic.
	CacheHits, CacheMisses int64
	// CacheEntries is the number of cached bindings at query end (the
	// paper's §5.1 hash tables are per-query, so this is their peak size).
	CacheEntries int
	// Rows is the number of rows the plan root produced — under a TopK or
	// Limit root, the rows left after the LIMIT. COUNT(*) replaces it with
	// the single aggregate row.
	Rows int
	// Transfer summarizes the predicate-transfer stage (nil unless
	// Env.Transfer was on and the plan had a transferable join).
	Transfer *TransferStats
}

// TransferStats summarizes one query's predicate-transfer stage.
type TransferStats struct {
	// Classes is the number of join-key equivalence classes spanning two or
	// more tables; FiltersBuilt counts filter (re)builds across both passes
	// and BuildRows the keys inserted into them.
	Classes      int   `json:"classes"`
	FiltersBuilt int   `json:"filters_built"`
	BuildRows    int64 `json:"build_rows"`
	// Probes counts every filter test (prepass and main scans); Pruned the
	// rows those tests rejected.
	Probes int64 `json:"probes"`
	Pruned int64 `json:"pruned"`
	// PrepassCharged is the charged cost of the prepass itself (its page
	// I/O, filter builds and probes, and any cache-warming invocations);
	// ProbeCharge is the charged cost of the main scans' probes. Both are
	// part of Stats.Charged — transfer's overhead is never free.
	PrepassCharged float64 `json:"prepass_charged"`
	ProbeCharge    float64 `json:"probe_charge"`
	// FPEst is the analytic false-positive estimate averaged over the final
	// class filters; FPActual the measured rate over the main scans'
	// non-member probes (−1 unless profiling captured the key sets).
	FPEst    float64 `json:"fp_est"`
	FPActual float64 `json:"fp_actual"`
}

// Charged is the paper's single-number measurement in random-I/O units.
func (s Stats) Charged() float64 {
	return float64(s.IO.Total()) + s.SyntheticIO + s.FuncCharge
}

// String renders the stats compactly. Predicate-cache traffic is appended
// when there was any, so ppsql and ppbench output shows cache behavior
// without JSON; cache-free runs render exactly as before.
func (s Stats) String() string {
	base := fmt.Sprintf("charged=%.0f (io=%d synth=%.0f func=%.0f) rows=%d",
		s.Charged(), s.IO.Total(), s.SyntheticIO, s.FuncCharge, s.Rows)
	if s.CacheHits != 0 || s.CacheMisses != 0 || s.CacheEntries != 0 {
		base += fmt.Sprintf(" cache(hits=%d misses=%d entries=%d)",
			s.CacheHits, s.CacheMisses, s.CacheEntries)
	}
	if t := s.Transfer; t != nil {
		base += fmt.Sprintf(" transfer(classes=%d built=%d probes=%d pruned=%d)",
			t.Classes, t.FiltersBuilt, t.Probes, t.Pruned)
	}
	return base
}

// finish assembles the stats at query end from the query's own counters.
func (e *Env) finish(rows int) Stats {
	inv := map[string]int64{}
	var charge float64
	e.funcMu.Lock()
	for f, c := range e.funcCalls {
		n := c.Load()
		if n > 0 {
			inv[f.Name] = n
		}
		if !f.RealWork {
			charge += float64(n) * f.Cost
		}
	}
	e.funcMu.Unlock()
	var hits, misses int64
	var entries int
	if e.Cache != nil {
		hits, misses, entries = e.Cache.Stats()
	}
	s := Stats{
		IO:           e.tracker.Stats(),
		SyntheticIO:  e.synthetic(),
		FuncCharge:   charge,
		Invocations:  inv,
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheEntries: entries,
		Rows:         rows,
	}
	if e.transfer != nil {
		s.Transfer = e.transfer.stats(e)
	}
	return s
}
