// Package predplace is a self-contained object-relational query engine built
// to reproduce "Practical Predicate Placement" (Hellerstein, SIGMOD 1994).
//
// It bundles a paged storage engine with B-tree indexes, a Volcano executor
// with predicate caching, a SQL front-end for conjunctive queries with
// expensive user-defined predicates and correlated IN-subqueries, and a
// System R-style optimizer offering the paper's placement algorithms:
// PushDown+, PullUp, PullRank, Predicate Migration, LDL, and an Exhaustive
// oracle.
//
// Quick start:
//
//	db, _ := predplace.Open(predplace.Config{Scale: 0.05})
//	res, _ := db.Query("SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND costly100(t10.u20)",
//		predplace.Migration)
//	fmt.Println(res.Plan)
//	fmt.Println(res.Stats)
package predplace

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/exec"
	"predplace/internal/expr"
	"predplace/internal/optimizer"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/sqlparse"
	"predplace/internal/storage"
)

// Algorithm selects the predicate-placement scheme.
type Algorithm = optimizer.Algorithm

// The available placement algorithms (see Table 1 of the paper).
const (
	NaivePushDown = optimizer.NaivePushDown
	PushDown      = optimizer.PushDown
	PullUp        = optimizer.PullUp
	PullRank      = optimizer.PullRank
	Migration     = optimizer.Migration
	LDL           = optimizer.LDL
	LDLIKKBZ      = optimizer.LDLIKKBZ
	Exhaustive    = optimizer.Exhaustive
	// ExhaustiveBushy extends the oracle to bushy join trees.
	ExhaustiveBushy = optimizer.ExhaustiveBushy
	// Robust picks the plan minimizing worst-case cost over an estimate-error
	// interval [sel/e, sel·e] (see Config.RobustE) instead of the point
	// estimate.
	Robust = optimizer.Robust
)

// Algorithms lists every implemented placement algorithm.
func Algorithms() []Algorithm { return optimizer.Algorithms() }

// Config is a database's options. Open reads every field; SetOptions changes
// the per-statement ones — every field but Scale, Tables, PoolPages and
// PlanCacheSize, which keep the values Open gave them.
type Config struct {
	// Scale multiplies the benchmark database's cardinalities
	// (1.0 reproduces the paper's ~110 MB database; 0 skips loading the
	// benchmark tables entirely, for user-defined schemas).
	Scale float64
	// Tables selects which benchmark relations tN to load (nil = t1…t10).
	Tables []int
	// PoolPages sets the buffer pool size in 8 KiB pages (0 = derived).
	PoolPages int
	// Caching enables predicate caching (§5.1).
	Caching bool
	// PerFunctionCache switches from Montage's per-predicate caching to the
	// per-function alternative of [Jhi88]/[HS93a]: predicates calling the
	// same function share cache entries.
	PerFunctionCache bool
	// CacheMaxEntries bounds each predicate's cache table (0 = unbounded);
	// when full the oldest binding is evicted, deterministic FIFO (§5.1
	// notes caches "can be limited in size, using any of a variety of
	// replacement schemes"; a deterministic one keeps bounded runs
	// reproducible).
	CacheMaxEntries int
	// Budget aborts queries whose charged cost exceeds it (0 = unlimited) —
	// used to reproduce the paper's did-not-finish result for Query 5.
	Budget float64
	// Parallelism sets the intra-query worker fan-out: heap scans are
	// range-partitioned across workers, expensive filters evaluate on a
	// worker pool, and hash joins build/probe partitioned tables in
	// parallel. 0 or 1 keeps the classic serial executor (the default —
	// every figure reproduction runs serially); < 0 uses GOMAXPROCS.
	// Charged cost with caching off is identical at any setting. The buffer
	// pool keeps the shard layout Open gave it, so changing Parallelism on
	// one handle compares executors over identical storage.
	Parallelism int
	// BatchSize sets how many rows the executor's operators hand up per
	// NextBatch call. 0 uses the tuned default (exec.DefaultBatchSize); 1 is
	// one row per call, through the same code; > 1 sets the batch width.
	// Results, row order, and charged cost are identical at every setting —
	// a wider batch only amortizes per-row interface calls, lock
	// acquisitions, and allocations.
	BatchSize int
	// Timeout bounds each query's wall-clock execution time (0 = none).
	// A timed-out query unwinds through the executor's ordinary error path
	// and returns an error satisfying errors.Is(err, context.DeadlineExceeded).
	Timeout time.Duration
	// Profile enables per-operator runtime profiling for every query:
	// Result.Profile carries an OpProfile tree pairing the optimizer's
	// per-node estimates with actual rows, wall time, attributed I/O, and
	// predicate/cache counters. Profiling is observational — results, row
	// order, and charged cost are byte-identical with it on or off (wall
	// time is never charged). Off by default; EXPLAIN ANALYZE profiles its
	// one statement regardless of this setting.
	Profile bool
	// Transfer enables predicate transfer: before execution, a serial
	// prepass scans the joined tables smallest-first, building a Bloom
	// filter per join-key equivalence class from each table's survivors
	// (cheap local predicates always applied; cacheable expensive ones when
	// caching is on) and probing the filters built so far, forward then
	// backward across the join graph. Main scans then probe the received
	// filters before decoding, pruning rows that cannot join. Results are
	// identical with it on or off; filter builds and probes are charged into
	// the cost (never free), and the optimizer plans under transfer-adjusted
	// cardinalities. Off by default — every figure reproduction runs without
	// it.
	Transfer bool
	// PlanCacheSize bounds the shared LRU plan cache (0 = the
	// DefaultPlanCacheSize of 64 entries; negative disables plan caching).
	// Cached plans are keyed on normalized SQL, algorithm, the
	// planning-affecting knobs, and the catalog version, so a hit is always
	// the plan that planning would have produced.
	PlanCacheSize int
	// Feedback enables feedback-driven statistics: every query runs with the
	// per-operator profile on, observed per-predicate/per-join selectivities
	// and measured real-work function costs are harvested into the catalog's
	// feedback store at query end, and when any observation's error factor
	// exceeds DefaultFeedbackThreshold the batch is promoted — future
	// planning uses the observed selectivities ahead of histogram/default
	// guesses, registered functions' metadata is refreshed from the measured
	// actuals, and the catalog version bump re-optimizes every cached plan.
	// Results, row order, and charged cost of any single query are identical
	// with it on or off (harvesting is observational); only subsequent plans
	// change. Off by default — planning and execution are byte-identical to a
	// feedback-less build.
	Feedback bool
	// RobustE is the Robust algorithm's estimate-error interval half-width e:
	// candidate plans are scored over selectivities [sel/e, sel·e] and
	// expensive predicate costs [cost/e, cost·e], and the plan with the best
	// worst case wins (≤ 1 = DefaultRobustE). Planning-affecting: part of the
	// plan-cache key.
	RobustE float64
}

// resolve normalizes the per-statement fields: Parallelism < 0 becomes
// GOMAXPROCS and 0 becomes 1, and RobustE ≤ 1 becomes DefaultRobustE.
func (c *Config) resolve() {
	switch {
	case c.Parallelism < 0:
		c.Parallelism = runtime.GOMAXPROCS(0)
	case c.Parallelism == 0:
		c.Parallelism = 1
	}
	if c.RobustE <= 1 {
		c.RobustE = DefaultRobustE
	}
}

// DB is an open database handle, safe for concurrent use: any number of
// goroutines may run queries at once. Each query executes in its own
// exec.Env — private I/O accounting, UDF invocation counters, and
// predicate-cache scope — so concurrent queries' results and charged costs
// are identical to running each alone. SetOptions applies to statements
// that begin after the call.
type DB struct {
	inner *datagen.DB
	// mu guards opts, the resolved options. Every statement entry point
	// (QueryContext, Prepare, PreparedStatement.Exec, Exec) copies them
	// once and runs entirely from the copy, so a concurrent SetOptions never
	// tears a running statement's configuration.
	mu   sync.Mutex
	opts Config
	// validate is the PPLINT_VALIDATE environment knob, read once at Open
	// so the per-statement hot path never consults the process environment.
	validate bool
	subSeq   atomic.Int64
	// plans is the shared LRU plan cache (nil = disabled).
	plans *planCache
}

// Open creates a database. With Scale > 0 the paper's benchmark schema is
// generated and the costlyN function family registered.
func Open(cfg Config) (*DB, error) {
	cfg.resolve()
	var inner *datagen.DB
	var err error
	if cfg.Scale > 0 {
		inner, err = datagen.Build(datagen.Config{
			Scale:      cfg.Scale,
			Tables:     cfg.Tables,
			PoolPages:  cfg.PoolPages,
			PoolShards: poolShards(cfg.Parallelism),
		})
	} else {
		pool := cfg.PoolPages
		if pool == 0 {
			pool = 256
		}
		acct := &storage.Accountant{}
		disk := storage.NewDisk(acct)
		inner = &datagen.DB{
			Disk: disk,
			Pool: storage.NewShardedBufferPool(disk, pool, poolShards(cfg.Parallelism)),
			Cat:  catalog.New(),
		}
		err = datagen.RegisterStandardFuncs(inner.Cat)
	}
	if err != nil {
		return nil, err
	}
	return newDB(inner, cfg), nil
}

// newDB wraps a loaded database in a handle with the resolved options cfg
// (the buffer pool was sharded for cfg.Parallelism).
func newDB(inner *datagen.DB, cfg Config) *DB {
	planEntries := cfg.PlanCacheSize
	if planEntries == 0 {
		planEntries = DefaultPlanCacheSize
	}
	return &DB{
		inner:    inner,
		opts:     cfg,
		validate: os.Getenv("PPLINT_VALIDATE") == "1",
		plans:    newPlanCache(planEntries),
	}
}

// Options returns the resolved options the next statement runs under.
func (d *DB) Options() Config {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.opts
}

// SetOptions changes the options of statements that begin after it
// returns: set edits a copy of the current options, which is then resolved
// as Open resolves it, with the open-time fields (Scale, Tables, PoolPages,
// PlanCacheSize) put back as Open set them. set runs under the handle's
// lock, so it must not call back into d.
func (d *DB) SetOptions(set func(*Config)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.opts
	set(&c)
	c.Scale, c.Tables, c.PoolPages, c.PlanCacheSize = d.opts.Scale, d.opts.Tables, d.opts.PoolPages, d.opts.PlanCacheSize
	c.resolve()
	d.opts = c
}

// SetProfile is SetOptions setting Config.Profile, kept for the benchmark
// module, which is built against this method.
func (d *DB) SetProfile(on bool) { d.SetOptions(func(c *Config) { c.Profile = on }) }

// poolShards picks the buffer-pool stripe count for a worker fan-out: one
// shard per worker, capped at 16, and exactly 1 for serial databases so the
// classic single-LRU replacement behavior (and therefore every figure
// reproduction) is untouched.
func poolShards(workers int) int {
	if workers <= 1 {
		return 1
	}
	if workers > 16 {
		return 16
	}
	return workers
}

// pcacheScope maps the config to a predicate-cache scope.
func pcacheScope(cfg Config) pcache.Scope {
	if cfg.PerFunctionCache {
		return pcache.ByFunction
	}
	return pcache.ByPredicate
}

// Catalog exposes the underlying catalog (tables, statistics, functions).
func (d *DB) Catalog() *catalog.Catalog { return d.inner.Cat }

// DefaultBatchSize is the batch width used when Config.BatchSize is 0.
const DefaultBatchSize = exec.DefaultBatchSize

// DefaultFeedbackThreshold is the ×err factor above which harvested
// feedback observations are promoted: an estimate off by more than 2×
// either way triggers re-optimization. Always compared against finite,
// capped error factors — a zero estimate against a nonzero actual reports
// the cap, never ±Inf.
const DefaultFeedbackThreshold = 2.0

// DefaultRobustE is the Robust algorithm's error-interval half-width when
// Config.RobustE is ≤ 1.
const DefaultRobustE = optimizer.DefaultRobustE

// FeedbackStats snapshots the catalog feedback store's counters: harvested
// observations, pending and applied entries, promotions, and the largest
// pending error factor (always finite).
func (d *DB) FeedbackStats() catalog.FeedbackStats {
	return d.inner.Cat.Feedback().Stats()
}

// FaultConfig configures the deterministic storage fault injector; see
// SetFaults.
type FaultConfig = storage.FaultConfig

// ErrInjectedFault is the sentinel every injected storage fault wraps;
// match it with errors.Is.
var ErrInjectedFault = storage.ErrInjectedFault

// ErrCanceled is the sentinel the executor wraps around a context
// cancellation or deadline; the context cause (context.Canceled or
// context.DeadlineExceeded) is also reachable through errors.Is.
var ErrCanceled = exec.ErrCanceled

// TypeMismatchError is the bind error of a comparison between two types — in
// WHERE, between an IN operand and its subquery's output, or inside the
// subquery; match it with errors.As.
type TypeMismatchError = sqlparse.TypeMismatchError

// SetFaults installs a deterministic fault injector beneath the buffer pool
// for subsequent queries: page reads and writes fail according to cfg
// (the Nth I/O, a seeded probability per I/O, or both). Injected failures
// surface as errors wrapping ErrInjectedFault; a failed I/O is never charged
// to the cost accountant. Passing nil removes the injector.
func (d *DB) SetFaults(cfg *FaultConfig) {
	if cfg == nil {
		d.inner.Disk.SetFaults(nil)
		return
	}
	d.inner.Disk.SetFaults(storage.NewFaultInjector(*cfg))
}

// FaultCounts reports the installed injector's counters — page reads and
// writes observed, and faults injected — all zero when no injector is set.
func (d *DB) FaultCounts() (reads, writes, injected int64) {
	if fi := d.inner.Disk.Faults(); fi != nil {
		return fi.Counts()
	}
	return 0, 0, 0
}

// PinnedFrames reports how many buffer-pool frames are currently pinned.
// Between queries it must be zero — any other value is a page leak; the
// test harness asserts this after every query, including aborted ones.
func (d *DB) PinnedFrames() int { return d.inner.Pool.PinnedFrames() }

// EvictPool drops every unpinned page from the buffer pool, returning it
// to a cold state. Benchmarks call it before a measured run so the run's
// physical I/O — and therefore its charged cost — never depends on what
// the previous query happened to leave cached.
func (d *DB) EvictPool() error { return d.inner.Pool.EvictUnpinned() }

// ColumnSpec declares a column of a user-created table.
type ColumnSpec struct {
	// Name of the column.
	Name string
	// String marks a string column of width Len; otherwise the column is a
	// 64-bit integer.
	String bool
	// Len is the fixed width of string columns.
	Len int
	// Indexed builds a B-tree over the column (integers only).
	Indexed bool
}

// CreateTable creates an empty user table.
func (d *DB) CreateTable(name string, cols []ColumnSpec) error {
	ccols := make([]catalog.Column, len(cols))
	for i, c := range cols {
		if c.String {
			if c.Len <= 0 {
				return fmt.Errorf("predplace: string column %s needs Len", c.Name)
			}
			ccols[i] = catalog.Column{Name: c.Name, Type: expr.TString, FixedLen: c.Len}
		} else {
			ccols[i] = catalog.Column{Name: c.Name, Type: expr.TInt, Distinct: 1}
		}
	}
	codec, err := catalog.NewRowCodec(ccols)
	if err != nil {
		return err
	}
	tab := &catalog.Table{
		Name:       name,
		Columns:    ccols,
		Heap:       storage.NewHeapFile(d.inner.Pool),
		Indexes:    map[string]*btree.Tree{},
		Codec:      codec,
		TupleBytes: codec.Width(),
	}
	for i, c := range cols {
		if c.Indexed {
			if c.String {
				return fmt.Errorf("predplace: string columns cannot be indexed")
			}
			tab.Indexes[ccols[i].Name] = btree.New(d.inner.Disk.Accountant())
		}
	}
	return d.inner.Cat.AddTable(tab)
}

// Insert appends one row. Values must be int64/int or string per column.
func (d *DB) Insert(table string, values ...interface{}) error {
	tab, err := d.inner.Cat.Table(table)
	if err != nil {
		return err
	}
	if len(values) != len(tab.Columns) {
		return fmt.Errorf("predplace: %s has %d columns, got %d values", table, len(tab.Columns), len(values))
	}
	row := make(expr.Row, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case int:
			row[i] = expr.I(int64(x))
		case int64:
			row[i] = expr.I(x)
		case string:
			row[i] = expr.S(x)
		case nil:
			row[i] = expr.Null
		default:
			return fmt.Errorf("predplace: unsupported value type %T", v)
		}
	}
	rec, err := tab.Codec.Encode(row)
	if err != nil {
		return err
	}
	tid, err := tab.Heap.Insert(rec)
	if err != nil {
		return err
	}
	for i := range tab.Columns {
		if tree, ok := tab.Indexes[tab.Columns[i].Name]; ok && row[i].Kind == expr.TInt {
			tree.Insert(row[i].I, tid)
		}
	}
	tab.Card++
	d.inner.Cat.BumpVersion()
	return nil
}

// Analyze recomputes a table's statistics from its data and forgets any
// loading I/O, preparing it for measured queries.
func (d *DB) Analyze(table string) error {
	if err := datagen.ComputeStats(d.inner, table); err != nil {
		return err
	}
	d.inner.Disk.Accountant().Reset()
	d.inner.Cat.BumpVersion()
	return nil
}

// RegisterFunc registers a user-defined boolean predicate function with its
// cost metadata (per-call cost in random-I/O units and selectivity).
func (d *DB) RegisterFunc(name string, arity int, costPerCall, selectivity float64,
	eval func(args []Value) Value) error {
	return d.inner.Cat.RegisterFunc(&expr.FuncDef{
		Name: name, Arity: arity, Cost: costPerCall, Selectivity: selectivity,
		Cacheable: true, Eval: eval,
	})
}

// Value is a runtime datum; see the expr helpers re-exported below.
type Value = expr.Value

// Int wraps an integer as a Value.
func Int(v int64) Value { return expr.I(v) }

// Str wraps a string as a Value.
func Str(s string) Value { return expr.S(s) }

// Bool wraps a boolean as a Value.
func Bool(b bool) Value { return expr.B(b) }

// NullValue is the SQL NULL.
var NullValue = expr.Null

// Stats reports the resources one query consumed; Charged() is the paper's
// measurement (page I/Os + invocations × per-call cost).
type Stats = exec.Stats

// PlanInfo carries the optimizer's diagnostics.
type PlanInfo = optimizer.Info

// OpProfile is one operator's runtime profile; see Result.Profile. The tree
// mirrors the plan and has a stable JSON encoding (ppsql -profile emits it).
type OpProfile = exec.OpProfile

// Result is the outcome of Query.
type Result struct {
	// Cols names the output columns.
	Cols []string
	// Rows holds the output (nil for EXPLAIN or DNF), ordered and truncated
	// by the plan root when the statement has ORDER BY or LIMIT.
	Rows [][]Value
	// Plan is the chosen plan rendered as a tree.
	Plan string
	// EstCost is the optimizer's estimate for the chosen plan.
	EstCost float64
	// Stats reports execution resource usage (zero for EXPLAIN). Stats.Rows
	// is len(Rows), except that COUNT(*) reports its one aggregate row.
	Stats Stats
	// Info reports planning diagnostics.
	Info PlanInfo
	// Profile is the per-operator runtime profile (non-nil when profiling
	// was on — Config.Profile/SetProfile — or the statement was EXPLAIN
	// ANALYZE).
	Profile *OpProfile
	// DNF marks queries aborted by the charged-cost budget.
	DNF bool
	// Explained marks EXPLAIN statements (not executed).
	Explained bool
}

// Query parses, optimizes with the given algorithm, and (unless the
// statement has an EXPLAIN prefix) executes the SQL text.
func (d *DB) Query(sql string, algo Algorithm) (*Result, error) {
	return d.QueryContext(context.Background(), sql, algo)
}

// QueryContext is Query with a context: cancellation or deadline expiry
// aborts the running query promptly — serial, parallel, and batched
// executors alike observe the context on the executor's budget-check
// cadence and unwind through the ordinary error path (iterators close,
// pages unpin, workers exit). The returned error wraps the context cause,
// so errors.Is(err, context.Canceled) / context.DeadlineExceeded hold. A
// configured Timeout applies on top of ctx.
func (d *DB) QueryContext(ctx context.Context, sql string, algo Algorithm) (*Result, error) {
	k := d.Options()
	p, err := d.prepare(sql, algo, k)
	if err != nil {
		return nil, err
	}
	return d.execPrepared(ctx, p, k)
}

// PreparedStatement is a statement that has been parsed, bound, and
// optimized once, ready to execute any number of times without repeating
// that work. The plan tree is immutable; every execution builds its own
// execution environment, so one PreparedStatement may be executed from many
// goroutines concurrently. The plan is fixed at Prepare time: schema or
// statistics changes after Prepare do not re-plan it (Query/QueryContext,
// whose cache is catalog-versioned, pick up such changes automatically).
type PreparedStatement struct {
	db   *DB
	sql  string
	plan *planEntry
}

// Prepare parses, binds, and optimizes sql under the given algorithm,
// consulting the shared plan cache. The planning-affecting knobs (caching,
// transfer, feedback) are snapshotted at this call.
func (d *DB) Prepare(sql string, algo Algorithm) (*PreparedStatement, error) {
	return d.prepare(sql, algo, d.Options())
}

// SQL returns the statement's original text.
func (p *PreparedStatement) SQL() string { return p.sql }

// Plan renders the prepared plan tree.
func (p *PreparedStatement) Plan() string { return plan.Render(p.plan.root) }

// Exec executes the prepared statement; execution knobs (budget,
// parallelism, batching, timeout, profiling) are snapshotted per call.
func (p *PreparedStatement) Exec() (*Result, error) {
	return p.ExecContext(context.Background())
}

// ExecContext is Exec with a context; see DB.QueryContext for the
// cancellation contract.
func (p *PreparedStatement) ExecContext(ctx context.Context) (*Result, error) {
	return p.db.execPrepared(ctx, p, p.db.Options())
}

// prepare resolves sql to a prepared statement: a plan-cache hit reuses the
// cached plan outright; a miss runs parse/bind/optimize and publishes the
// result for the next caller.
func (d *DB) prepare(sql string, algo Algorithm, k Config) (*PreparedStatement, error) {
	key := planKey{
		sql: normalizeSQL(sql), algo: algo,
		caching: k.Caching, transfer: k.Transfer,
		feedback: k.Feedback, robustE: k.RobustE,
		catVer: d.inner.Cat.Version(),
	}
	if d.plans != nil {
		if e, ok := d.plans.get(key); ok {
			return &PreparedStatement{db: d, sql: sql, plan: e}, nil
		}
	}
	root, bound, info, err := d.plan(sql, algo, k)
	if err != nil {
		return nil, err
	}
	e := &planEntry{key: key, root: root, bound: bound, info: info}
	if d.plans != nil {
		d.plans.put(e)
	}
	return &PreparedStatement{db: d, sql: sql, plan: e}, nil
}

// execPrepared executes a prepared statement under the options snapshot k.
func (d *DB) execPrepared(ctx context.Context, p *PreparedStatement, k Config) (*Result, error) {
	root, bound, info := p.plan.root, p.plan.bound, p.plan.info
	// EstCost comes from the planner's Info, not the root node: with
	// transfer on it includes the prepass's estimated cost (identical to
	// root.Cost() otherwise).
	res := &Result{
		Plan:    p.plan.text(),
		EstCost: info.EstCost,
		Info:    *info,
	}
	if bound.Explain && !bound.Analyze {
		res.Explained = true
		return res, nil
	}
	ctx, cancel := execCtx(ctx, k.Timeout)
	defer cancel()
	env := d.newEnv(ctx, k)
	// EXPLAIN ANALYZE always profiles its statement: the profile is the
	// point of the command, and every plan node then has an actual row
	// count (probe-driven inner chains and never-reached subtrees
	// included), so "actual=n/a" cannot appear. Feedback harvesting needs
	// the same per-operator actuals, so it forces profiling too — but only
	// an explicit request surfaces the profile on the Result below.
	env.Profile = k.Profile || bound.Explain || k.Feedback
	out, err := exec.Run(env, root)
	if err != nil {
		return nil, err
	}
	res.Stats = out.Stats
	res.DNF = out.DNF
	if k.Profile || bound.Explain {
		res.Profile = out.Profile
	}
	// Harvest observed selectivities and measured function costs into the
	// catalog's feedback store, then promote the batch when any observation
	// is off by more than the threshold. A DNF query stopped mid-stream, and
	// so did the plan under a Limit root that cut it off: their per-operator
	// ratios are truncation artifacts, not selectivities.
	if k.Feedback && out.Profile != nil && !out.DNF && out.Profile.ShortCircuit == 0 {
		fb := d.inner.Cat.Feedback()
		harvestFeedback(fb, root, out.Profile)
		if fb.MaxPendingErr() > DefaultFeedbackThreshold {
			d.inner.Cat.ApplyFeedback()
		}
	}
	if bound.Explain { // EXPLAIN ANALYZE: annotated plan, no result rows
		res.Explained = true
		res.Plan = analyzedPlan(root, out) + robustSummary(info)
		return res, nil
	}
	project(root, bound, out, res)
	return res, nil
}

// analyzedPlan renders the EXPLAIN ANALYZE tree: each node carries the
// optimizer's row estimate, the measured row count, and the estimation-error
// factor; a summary line totals the profile underneath.
func analyzedPlan(root plan.Node, out *exec.Result) string {
	rendered := plan.RenderWith(root, func(n plan.Node) string {
		rows, ok := out.NodeRows[n]
		if !ok {
			return " actual=n/a"
		}
		s := fmt.Sprintf(" est=%.0f actual=%d (%s)", n.Card(), rows, errFactorString(n.Card(), rows))
		// TopK and Limit are root-only, and the profile tree's root is the
		// plan's: heap traffic and the short-circuit annotate that line.
		if p := out.Profile; p != nil && n == root {
			if p.HeapPushed > 0 || p.HeapEvicted > 0 {
				s += fmt.Sprintf(" heap(pushed=%d evicted=%d)", p.HeapPushed, p.HeapEvicted)
			}
			if p.ShortCircuit > 0 {
				s += " short-circuit"
			}
		}
		return s
	})
	if out.Profile != nil {
		rendered += profileSummary(out.Profile)
	}
	if t := out.Stats.Transfer; t != nil {
		rendered += transferSummary(t)
	}
	return rendered
}

// transferSummary is the predicate-transfer line under an EXPLAIN ANALYZE
// tree: prepass filters and their measured effect. FP rates print only when
// measured (profiling tracks exact key sets; -1 means unmeasured).
func transferSummary(t *exec.TransferStats) string {
	s := fmt.Sprintf("transfer: classes=%d filters=%d built=%d probes=%d pruned=%d charged=%.1f",
		t.Classes, t.FiltersBuilt, t.BuildRows, t.Probes, t.Pruned, t.PrepassCharged+t.ProbeCharge)
	if t.FPActual >= 0 {
		s += fmt.Sprintf(" fp=%.4f (est %.4f)", t.FPActual, t.FPEst)
	}
	return s + "\n"
}

// errFactorString renders the symmetric estimation-error factor ×max(a/e, e/a).
func errFactorString(est float64, act int64) string {
	a := float64(act)
	if est <= 0 && a <= 0 {
		return "×1.00"
	}
	if est <= 0 || a <= 0 {
		return "×inf"
	}
	f := a / est
	if f < 1 {
		f = 1 / f
	}
	return maxErrString(f)
}

// profileSummary is the per-query summary line under an EXPLAIN ANALYZE
// tree: inclusive wall time and I/O from the root window, predicate totals,
// and the worst cardinality estimate in the tree.
func profileSummary(p *OpProfile) string {
	evals, inv, hits, misses := p.Totals()
	maxErr, at := p.MaxErr()
	s := fmt.Sprintf("total: wall=%.1fms io=%d predEvals=%d invocations=%d",
		float64(p.WallNs)/1e6, p.IO.Total(), evals, inv)
	if hits != 0 || misses != 0 {
		s += fmt.Sprintf(" cache=%d/%d", hits, hits+misses)
	}
	return s + fmt.Sprintf(" maxErr=%s @ %s\n", maxErrString(maxErr), at)
}

// maxErrString formats an error factor, printing anything at or beyond the
// profiler's cap as ×inf.
func maxErrString(f float64) string {
	if f >= exec.ErrFactorCap {
		return "×inf"
	}
	return fmt.Sprintf("×%.2f", f)
}

// Explain returns the plan chosen by the given algorithm without executing.
func (d *DB) Explain(sql string, algo Algorithm) (string, error) {
	p, err := d.prepare(sql, algo, d.Options())
	if err != nil {
		return "", err
	}
	return p.plan.text(), nil
}

// robustSummary is the EXPLAIN line describing the Robust algorithm's
// error-interval scoring: the interval the candidates were scored over, the
// chosen plan's worst-case cost across it, and how many distinct plan shapes
// competed. Empty for every other algorithm — their EXPLAIN output stays
// byte-identical.
func robustSummary(info *optimizer.Info) string {
	if info.Algorithm != optimizer.Robust || info.RobustE <= 0 {
		return ""
	}
	return fmt.Sprintf("robust interval=[sel/%g, sel×%g] worst-case=%.0f candidates=%d\n",
		info.RobustE, info.RobustE, info.RobustWorst, info.RobustCandidates)
}

// execCtx layers a per-query timeout onto ctx; the returned cancel function
// must be called when the query finishes (it is a release, not an abort,
// once the query is done).
func execCtx(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return ctx, func() {}
}

// newEnv builds a fresh execution environment bound to ctx, configured
// entirely from the options snapshot k.
func (d *DB) newEnv(ctx context.Context, k Config) *exec.Env {
	var cache *pcache.Manager // nil when caching is off: nothing to set up
	if k.Caching {
		cache = pcache.NewManagerScoped(true, k.CacheMaxEntries, pcacheScope(k))
	}
	return &exec.Env{
		Ctx:         ctx,
		Cat:         d.inner.Cat,
		Pool:        d.inner.Pool,
		Cache:       cache,
		Budget:      k.Budget,
		Parallelism: k.Parallelism,
		BatchSize:   k.BatchSize,
		Validate:    d.validate,
		Transfer:    k.Transfer,
	}
}

func (d *DB) plan(sql string, algo Algorithm, k Config) (plan.Node, *sqlparse.Bound, *optimizer.Info, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	binder := &sqlparse.Binder{Cat: d.inner.Cat, CompileSubquery: d.compileSubquery}
	bound, err := binder.Bind(stmt)
	if err != nil {
		return nil, nil, nil, err
	}
	spec, err := topkSpec(bound)
	if err != nil {
		return nil, nil, nil, err
	}
	opt := optimizer.New(d.inner.Cat, optimizer.Options{
		Algorithm: algo, Caching: k.Caching, Transfer: k.Transfer,
		TopK:     spec,
		Feedback: k.Feedback, RobustE: k.RobustE,
	})
	root, info, err := opt.Plan(bound.Query)
	if err != nil {
		return nil, nil, nil, err
	}
	// With PPLINT_VALIDATE=1 (snapshotted at Open) every planned tree —
	// whether it is about to be executed, explained, or compared — is held
	// to plan.Validate's invariants before leaving the planner.
	if d.validate {
		if err := plan.Validate(root); err != nil {
			return nil, nil, nil, fmt.Errorf("predplace: %s produced an invalid plan: %w", algo, err)
		}
	}
	return root, bound, info, nil
}

// topkSpec lifts a bound ORDER BY and/or LIMIT into the optimizer's
// specification: the plan root is the one place a statement is ordered and
// truncated. Nil when the statement has neither, or is a COUNT(*) (the
// aggregate consumes every row; there is nothing to order or bound). An
// ORDER BY column that is not among the projected output columns is an
// error, raised here so that nothing executes first: sorting by a column the
// result does not carry is a wrong answer, not a degraded one.
func topkSpec(bound *sqlparse.Bound) (*optimizer.TopKSpec, error) {
	if bound.CountStar || (bound.OrderBy == nil && bound.Limit < 0) {
		return nil, nil
	}
	spec := &optimizer.TopKSpec{Key: bound.OrderBy, Desc: bound.Desc, K: bound.Limit}
	if bound.OrderBy != nil && !bound.Star && len(bound.Projection) > 0 {
		if !slices.Contains(bound.Projection, *bound.OrderBy) {
			return nil, fmt.Errorf("predplace: ORDER BY column %s is not in the select list", bound.OrderBy)
		}
		// Tie-break on the projected columns in projection order: rows the
		// heap cannot distinguish are identical after projection.
		spec.Tie = bound.Projection
	}
	return spec, nil
}

// project shapes executor output into res: COUNT(*)'s one aggregate row, or
// the SELECT list applied to every row.
func project(root plan.Node, bound *sqlparse.Bound, out *exec.Result, res *Result) {
	if bound.CountStar {
		res.Cols = []string{"count"}
		res.Rows = [][]Value{{Int(int64(out.Stats.Rows))}}
		res.Stats.Rows = 1 // one aggregate row is the result
		return
	}
	res.Rows = make([][]Value, len(out.Rows))
	if bound.Star || len(bound.Projection) == 0 {
		res.Cols = out.Cols
		for i, r := range out.Rows {
			res.Rows[i] = r
		}
		return
	}
	idx := make([]int, len(bound.Projection))
	res.Cols = make([]string, len(bound.Projection))
	for i, ref := range bound.Projection {
		idx[i] = plan.ColIndex(root, ref)
		res.Cols[i] = ref.String()
	}
	// Every projected row is carved from one backing array.
	vals := make([]Value, len(out.Rows)*len(idx))
	for i, r := range out.Rows {
		pr := vals[i*len(idx) : (i+1)*len(idx) : (i+1)*len(idx)]
		for k, j := range idx {
			if j >= 0 {
				pr[k] = r[j]
			}
		}
		res.Rows[i] = pr
	}
}

// compileSubquery lowers a bound IN-subquery into an expensive predicate
// whose evaluation scans the subquery's table with the correlated outer
// columns bound — Montage's treatment of subqueries as expensive selections,
// with the whole predicate's tri-state result cached on the binding (§5.1).
func (d *DB) compileSubquery(sub *sqlparse.Subquery) (*expr.FuncDef, error) {
	tab, outIdx, not := sub.Table, sub.Out, sub.Not
	// Each comparison is a record test. tests[i] is correlated when
	// argOf[i] >= 0: an invocation puts that argument in its Val.
	tests := make([]catalog.ColTest, len(sub.Preds))
	argOf := make([]int, len(sub.Preds))
	for i, p := range sub.Preds {
		tests[i] = catalog.ColTest{Col: tab.ColIndex(p.Left.Col), Op: p.Op, Val: p.Value}
		argOf[i] = -1
		if p.Kind == query.KindJoinCmp {
			argOf[i] = 1 + slices.Index(sub.Args[1:], p.Right)
		}
	}

	name := fmt.Sprintf("in_%s_%d", tab.Name, d.subSeq.Add(1))
	f := &expr.FuncDef{
		Name:        name,
		Arity:       len(sub.Args),
		Cost:        float64(tab.Pages()), // optimizer estimate: one scan per call
		Selectivity: 0.5,
		Cacheable:   true,
		RealWork:    true,
	}
	// EvalIO is SQL's three-valued x IN (set): TRUE when a qualifying row's
	// output equals x; otherwise NULL when x is NULL or a qualifying output is,
	// as long as the set is not empty; FALSE over the empty set, whatever x
	// is. NOT IN negates it, NULL staying NULL. A record is tested where it
	// lies, and only one that qualifies has its output column decoded.
	f.EvalIO = func(tr *storage.IOTracker, vals []expr.Value) (expr.Value, error) {
		x := vals[0]
		var buf [8]catalog.ColTest
		bound := append(buf[:0], tests...)
		for i, ai := range argOf {
			if ai >= 0 {
				bound[i].Val = vals[ai]
			}
		}
		unknown := false
		// The scan reads through the shared buffer pool; the executor passes
		// the running query's I/O tracker, so the subquery's page traffic is
		// charged to that query alone. A scan or decode failure propagates
		// instead of folding into a truth value — under injected faults a
		// silently-wrong answer would be worse than the fault itself.
		it := tab.Heap.WithTracker(tr).Scan()
		defer it.Close()
	scan:
		for {
			rec, _, ok, err := it.NextRef() // page memory: read in place
			if err != nil {
				return expr.Null, fmt.Errorf("predplace: subquery scan of %s: %w", tab.Name, err)
			}
			if !ok {
				break
			}
			for _, t := range bound {
				pass, err := tab.Codec.Test(rec, t)
				if err != nil {
					return expr.Null, fmt.Errorf("predplace: subquery decode of %s: %w", tab.Name, err)
				}
				if !pass {
					continue scan
				}
			}
			y, err := tab.Codec.DecodeCol(rec, outIdx)
			if err != nil {
				return expr.Null, fmt.Errorf("predplace: subquery decode of %s: %w", tab.Name, err)
			}
			switch {
			case x.IsNull():
				return expr.Null, nil // nothing equals x, and the set is not empty
			case y.IsNull():
				unknown = true
			case y.Equal(x):
				return expr.B(!not), nil
			}
		}
		if unknown {
			return expr.Null, nil
		}
		return expr.B(not), nil
	}
	if err := d.inner.Cat.RegisterFunc(f); err != nil {
		return nil, err
	}
	return f, nil
}

// CompareAll runs the SQL text under every algorithm in algos (defaults to
// all) and returns one Result per algorithm in order — the harness the paper
// used to debug its optimizer ("running the same query under the various
// heuristics and comparing the estimated costs and running times").
func (d *DB) CompareAll(sql string, algos ...Algorithm) ([]*Result, error) {
	if len(algos) == 0 {
		algos = Algorithms()
	}
	out := make([]*Result, 0, len(algos))
	for _, a := range algos {
		r, err := d.Query(sql, a)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", a, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// FormatComparison renders CompareAll results as an aligned table with costs
// normalized to the best algorithm — the textual analog of the paper's
// relative-time bar charts.
func FormatComparison(algos []Algorithm, results []*Result) string {
	best := 0.0
	for _, r := range results {
		c := r.Stats.Charged()
		if !r.DNF && (best == 0 || c < best) {
			best = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %14s %10s %14s %8s\n", "algorithm", "charged-cost", "relative", "est-cost", "rows")
	for i, r := range results {
		rel := "DNF"
		charged := r.Stats.Charged()
		if !r.DNF && best > 0 {
			rel = fmt.Sprintf("%.2fx", charged/best)
		}
		fmt.Fprintf(&b, "%-18s %14.0f %10s %14.0f %8d\n",
			algos[i].String(), charged, rel, r.EstCost, r.Stats.Rows)
	}
	return b.String()
}

// Exec runs a data-modification statement (currently DELETE FROM … WHERE …)
// and returns the number of affected rows. Selections are rank-ordered
// before evaluation, so expensive predicates benefit from the same ordering
// discipline as queries; statistics become stale after large deletes —
// re-run Analyze.
func (d *DB) Exec(sql string) (int, error) {
	stmt, err := sqlparse.ParseAny(sql)
	if err != nil {
		return 0, err
	}
	del, ok := stmt.(*sqlparse.DeleteStmt)
	if !ok {
		return 0, fmt.Errorf("predplace: Exec handles DELETE; use Query for SELECT")
	}
	binder := &sqlparse.Binder{Cat: d.inner.Cat, CompileSubquery: d.compileSubquery}
	q, err := binder.BindDelete(del)
	if err != nil {
		return 0, err
	}
	tab, err := d.inner.Cat.Table(del.Table)
	if err != nil {
		return 0, err
	}
	// Rank-order the predicates (cheap first, then ascending rank).
	preds := append([]*query.Predicate(nil), q.Preds...)
	sortPredsByRank(preds)

	k := d.Options()
	ctx, cancel := execCtx(context.Background(), k.Timeout)
	defer cancel()
	env := d.newEnv(ctx, k)
	tids, err := exec.MatchingTIDs(env, del.Table, preds)
	if err != nil {
		return 0, err
	}
	for _, tid := range tids {
		rec, err := tab.Heap.Get(tid)
		if err != nil {
			return 0, err
		}
		row, err := tab.Codec.Decode(rec)
		if err != nil {
			return 0, err
		}
		if err := tab.Heap.Delete(tid); err != nil {
			return 0, err
		}
		for i := range tab.Columns {
			if tree, ok := tab.Indexes[tab.Columns[i].Name]; ok && row[i].Kind == expr.TInt {
				tree.Delete(row[i].I, tid)
			}
		}
	}
	tab.Card -= int64(len(tids))
	if len(tids) > 0 {
		d.inner.Cat.BumpVersion()
	}
	return len(tids), nil
}

// sortPredsByRank orders predicates ascending by (selectivity−1)/cost.
func sortPredsByRank(preds []*query.Predicate) {
	sort.SliceStable(preds, func(i, j int) bool {
		ri, rj := preds[i].Rank(), preds[j].Rank()
		if ri != rj {
			return ri < rj
		}
		return preds[i].ID < preds[j].ID
	})
}
