package main

import (
	"fmt"
	"sync"
	"time"

	"predplace"
	"predplace/internal/expr"
	"predplace/internal/harness"
)

// env is what a run hands every workload.
type env struct {
	c      int     // client and GOMAXPROCS cap: min(nproc, 4)
	quick  bool    // smoke-test sizes
	seed   int64   // reaches only the server_mix request generator
	scale  float64 // > 0 overrides every workload's scale (manual runs)
	golden goldenFile
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string
	// scale is the committed database scale; golden.json holds outcomes at
	// exactly this scale. quickScale is the smoke-test scale.
	scale, quickScale float64
	// quickOps is the fixed op count of a -quick pass.
	quickOps int
	// perCore gives the workload C closed-loop clients instead of one.
	perCore bool
	// open performs the whole set-up: Open + load + RegisterFunc + Prepare
	// (and for server_mix the HTTP server). Its duration is setup_s.
	// want holds the golden outcomes when scale is the committed one.
	open func(e *env, scale float64, want map[string]outcome) (instance, error)
}

// instance is one set-up of a workload, ready to run operations.
type instance interface {
	db() *predplace.DB
	// gateSQL lists the statements the set-up gate runs under PushDown and
	// Migration, requiring equal result multisets.
	gateSQL() []namedSQL
	// probeSQL lists statements the parse/bind/plan probes time: the
	// workload's own, minus those the binder cannot bind from outside.
	probeSQL() []string
	// blockOps is the number of consecutive ops whose inputs repeat as a
	// unit: charged_per_op is averaged over whole blocks so that it does not
	// depend on where the clock stopped the pass.
	blockOps() int
	// op runs operation i on behalf of one closed-loop client. acc is nil on
	// the untraced pass.
	op(i int, tr *tracer, acc *layerAcc) opResult
	// failure returns the first failed check, for the report.
	failure() string
	close()
}

type namedSQL struct{ name, sql string }

// opResult is one operation's outcome. ns is the time spent inside the
// system under test; the benchmark's own checking is outside it.
type opResult struct {
	ns      int64
	charged float64
	ok      bool
}

// clients is the workload's closed-loop client count under core cap c.
func (w *workload) clients(c int) int {
	if w.perCore {
		return c
	}
	return 1
}

// The five workloads. Scales are sized so that a 15 s pass gives at least
// 100 operations on two cores.
var workloads = []*workload{
	{
		name:  "figures_scan",
		why:   "paper Queries 1-4 at scale 0.3, serial: heap scans that miss the pool, row decode, hash join, filter; planner and caches idle",
		scale: 0.3, quickScale: 0.02, quickOps: 3,
		open: func(e *env, scale float64, want map[string]outcome) (instance, error) {
			return openRounds(predplace.Config{Scale: scale}, figureStmts(), want)
		},
	},
	{
		name:  "figures_parallel",
		why:   "same statements with Parallelism=C: exchange, partitioned hash join, sharded pool; its ops_per_s over figures_scan is the parallel speed-up",
		scale: 0.3, quickScale: 0.02, quickOps: 3,
		open: func(e *env, scale float64, want map[string]outcome) (instance, error) {
			return openRounds(predplace.Config{Scale: scale, Parallelism: e.c}, figureStmts(), want)
		},
	},
	{
		name:  "plan_only",
		why:   "DB.Prepare of 9 statements x 5 placement algorithms, plan cache off, nothing executed: parser, binder, optimizer and cost model only",
		scale: 0.1, quickScale: 0.02, quickOps: 3,
		open: func(e *env, scale float64, want map[string]outcome) (instance, error) {
			return openRounds(predplace.Config{Scale: scale, PlanCacheSize: -1}, planStmts(), want)
		},
	},
	{
		name:  "nl_cache",
		why:   "predicate caching on, all pages resident: pcache lookup/store and nested-loop blocks dominate, the opposite use of the filter path from figures_*",
		scale: 0.02, quickScale: 0.01, quickOps: 3,
		open: func(e *env, scale float64, want map[string]outcome) (instance, error) {
			// 1.4 M tuples at scale 1 fit 78 to a page; 20 000 pages per
			// unit of scale holds every table with room to spare.
			pool := int(20000*scale) + 64
			return openRounds(predplace.Config{Scale: scale, Caching: true, PoolPages: pool}, cacheStmts(), want)
		},
	},
	{
		name:  "server_mix",
		why:   "C keep-alive HTTP clients, 80% point lookups / 15% medium / 5% heavy, hot-set constants: httpserver, admission, plan cache, B-tree probes, random fetches",
		scale: 0.1, quickScale: 0.02, quickOps: 200, perCore: true,
		open: openServerMix,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// stmt is one fixed statement of a round-based workload.
type stmt struct {
	name, sql string
	algo      predplace.Algorithm
	ps        *predplace.PreparedStatement // nil on plan_only
	// ref is what every execution must reproduce. Row count and checksum
	// come from golden.json at the committed scale; the charged cost (and at
	// other scales, and on plan_only, everything) from the first execution,
	// so that a change which lowers charged cost shows in charged_per_op
	// instead of failing every operation.
	ref *outcome
	// pinned is set once the first execution has filled ref in.
	pinned bool
}

func figureStmts() []*stmt {
	return []*stmt{
		{name: "query1", sql: harness.Query1, algo: predplace.Migration},
		{name: "query2", sql: harness.Query2, algo: predplace.Migration},
		{name: "query3", sql: harness.Query3, algo: predplace.Migration},
		{name: "query4", sql: harness.Query4, algo: predplace.Migration},
	}
}

// complexSuite is harness's TPC-D-shaped suite (unexported there).
var complexSuite = []namedSQL{
	{"star-2sel", `SELECT * FROM t1, t3, t10
		WHERE t1.ua1 = t10.ua1 AND t3.ua1 = t10.ua1
		AND costly100(t10.u20) AND costly10(t3.u10)`},
	{"chain-4way", `SELECT * FROM t1, t2, t3, t4
		WHERE t1.ua1 = t2.ua1 AND t2.ua1 = t3.ua1 AND t3.ua1 = t4.ua1
		AND costly100(t2.u20)`},
	{"dup-join-mixed", `SELECT * FROM t2, t4, t6
		WHERE t2.a10 = t4.a10 AND t4.ua1 = t6.ua1
		AND costly10(t4.u10) AND costly1(t6.u100) AND t2.u10 < 10`},
	{"cycle-extra-pred", `SELECT * FROM t1, t2, t3
		WHERE t1.ua1 = t2.ua1 AND t2.ua1 = t3.ua1 AND t1.a10 = t3.a10
		AND costly100(t3.u20)`},
	{"range-and-func", `SELECT * FROM t5, t10
		WHERE t5.ua1 = t10.ua1 AND t10.a1 < 500
		AND costly1000(t5.u100)`},
	{"two-expensive-same-table", `SELECT * FROM t3, t8
		WHERE t3.ua1 = t8.ua1
		AND costly1(t8.u10) AND costly100(t8.u20)`},
}

// planAlgos are the placement algorithms plan_only plans under; the metric
// optimizer.plan_us.<suffix> reports each.
var planAlgos = []struct {
	suffix string
	algo   predplace.Algorithm
}{
	{"pushdown", predplace.PushDown},
	{"pullrank", predplace.PullRank},
	{"migration", predplace.Migration},
	{"robust", predplace.Robust},
	{"ldl-ikkbz", predplace.LDLIKKBZ},
}

// planStmts is {PlanTimeQuery, Query 4, Query 5, the complex suite} x
// planAlgos. The EXPLAIN prefix lets the check read the chosen plan and its
// estimate back through PreparedStatement.Exec without executing anything.
func planStmts() []*stmt {
	sqls := append([]namedSQL{
		{"plantime", harness.PlanTimeQuery},
		{"query4", harness.Query4},
		{"query5", harness.Query5},
	}, complexSuite...)
	var out []*stmt
	for _, q := range sqls {
		for _, a := range planAlgos {
			out = append(out, &stmt{name: q.name + "." + a.suffix, sql: "EXPLAIN " + q.sql, algo: a.algo})
		}
	}
	return out
}

// correlatedIn is nl_cache's real-work UDF: the engine compiles the
// correlated subquery into a function that runs a query per distinct binding.
const correlatedIn = `SELECT * FROM t3
WHERE t3.a10 IN (SELECT a10 FROM t1 WHERE t1.u100 = t3.u100)`

func cacheStmts() []*stmt {
	return []*stmt{
		{name: "query5", sql: harness.Query5, algo: predplace.Migration},
		{name: "fig1", sql: harness.Fig1Query, algo: predplace.Migration},
		{name: "query3", sql: harness.Query3, algo: predplace.Migration},
		{name: "two-expensive-same-table", sql: complexSuite[5].sql, algo: predplace.Migration},
		{name: "correlated-in", sql: correlatedIn, algo: predplace.Migration},
	}
}

// openDB opens a database the way harness.New does: the benchmark schema
// plus Query 5's selective100.
func openDB(cfg predplace.Config) (*predplace.DB, error) {
	db, err := predplace.Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := db.RegisterFunc("selective100", 1, 100, 0.1, expr.BoolStub(0.1, 424242)); err != nil {
		return nil, err
	}
	return db, nil
}

// rounds is a workload whose operation is one pass over fixed statements:
// executing prepared statements, or on plan_only preparing them.
type rounds struct {
	database *predplace.DB
	stmts    []*stmt
	planOnly bool

	mu   sync.Mutex
	fail string
}

func openRounds(cfg predplace.Config, stmts []*stmt, want map[string]outcome) (instance, error) {
	db, err := openDB(cfg)
	if err != nil {
		return nil, err
	}
	r := &rounds{database: db, stmts: stmts, planOnly: cfg.PlanCacheSize < 0}
	for _, s := range stmts {
		if r.planOnly {
			continue // its golden entries record the plans; a planner change may alter them
		}
		if o, ok := want[s.name]; ok {
			s.ref = &o
		}
		if s.ps, err = db.Prepare(s.sql, s.algo); err != nil {
			return nil, fmt.Errorf("prepare %s: %w", s.name, err)
		}
	}
	return r, nil
}

func (r *rounds) db() *predplace.DB { return r.database }
func (r *rounds) blockOps() int     { return 1 }
func (r *rounds) close()            {}

func (r *rounds) failure() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fail
}

func (r *rounds) failf(format string, args ...any) {
	r.mu.Lock()
	if r.fail == "" {
		r.fail = fmt.Sprintf(format, args...)
	}
	r.mu.Unlock()
}

func (r *rounds) gateSQL() []namedSQL {
	if r.planOnly {
		return nil // nothing executes on plan_only, by design
	}
	out := make([]namedSQL, len(r.stmts))
	for i, s := range r.stmts {
		out[i] = namedSQL{s.name, s.sql}
	}
	return out
}

func (r *rounds) probeSQL() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range r.stmts {
		if s.sql == correlatedIn || seen[s.sql] {
			continue // the subquery compiler is private to the facade
		}
		seen[s.sql] = true
		out = append(out, s.sql)
	}
	return out
}

// fullCheckEvery is how often a round also checksums every row; row count
// and charged cost are compared on every round. Hashing the 64 000 rows of
// a figures round costs a few milliseconds, which would otherwise dilute
// ops_per_s with the benchmark's own work.
const fullCheckEvery = 8

func (r *rounds) op(i int, tr *tracer, acc *layerAcc) opResult {
	out := opResult{ok: true}
	root := tr.begin("op", -1, int32(i))
	for _, s := range r.stmts {
		step := r.execStmt
		if r.planOnly {
			step = r.planStmt
		}
		ns, charged, ok := step(s, i, root, tr, acc)
		out.ns += ns
		out.charged += charged
		out.ok = out.ok && ok
	}
	tr.end(root)
	return out
}

// planStmt times one DB.Prepare. The check reads the plan back through the
// EXPLAIN statement's Exec, which renders it and executes nothing.
func (r *rounds) planStmt(s *stmt, i int, root int32, tr *tracer, acc *layerAcc) (ns int64, charged float64, ok bool) {
	id := tr.begin("prepare."+s.name, root, int32(i))
	t0 := time.Now()
	ps, err := r.database.Prepare(s.sql, s.algo)
	ns = time.Since(t0).Nanoseconds()
	tr.end(id)
	acc.addPrepare(ns)
	if err != nil {
		r.failf("%s: %v", s.name, err)
		return ns, 0, false
	}
	id = tr.begin("bench.verify", root, int32(i))
	defer tr.end(id)
	res, err := ps.Exec()
	if err != nil {
		r.failf("%s: %v", s.name, err)
		return ns, 0, false
	}
	got := outcome{Checksum: hex(textChecksum(res.Plan)), Charged: res.EstCost}
	return ns, got.Charged, r.check(s, got, true)
}

// execStmt times one PreparedStatement.Exec and checks its result.
func (r *rounds) execStmt(s *stmt, i int, root int32, tr *tracer, acc *layerAcc) (ns int64, charged float64, ok bool) {
	id := tr.begin("exec."+s.name, root, int32(i))
	t0 := time.Now()
	res, err := s.ps.Exec()
	ns = time.Since(t0).Nanoseconds()
	tr.end(id)
	if err != nil {
		r.failf("%s: %v", s.name, err)
		return ns, 0, false
	}
	acc.addExec(ns, res)
	id = tr.begin("bench.verify", root, int32(i))
	defer tr.end(id)
	got := outcome{Rows: len(res.Rows), Charged: res.Stats.Charged()}
	full := i%fullCheckEvery == 0 || !s.pinned
	if full {
		got.Checksum = hex(rowsChecksum(res.Cols, res.Rows))
	}
	ok = r.check(s, got, full)
	if res.DNF {
		r.failf("%s: did not finish", s.name)
		ok = false
	}
	return ns, got.Charged, ok
}

// check compares one outcome with the statement's reference. The first
// execution (a warm-up round) pins what golden.json does not hold.
func (r *rounds) check(s *stmt, got outcome, full bool) bool {
	if !s.pinned {
		s.pinned = true
		if s.ref == nil {
			s.ref = &got
			return true
		}
		s.ref.Charged = got.Charged
	}
	if got.Rows != s.ref.Rows || got.Charged != s.ref.Charged || (full && got.Checksum != s.ref.Checksum) {
		r.failf("%s: got %+v, want %+v", s.name, got, *s.ref)
		return false
	}
	return true
}
