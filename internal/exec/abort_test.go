package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"predplace/internal/expr"
	"predplace/internal/pcache"
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

// abortWitness names each site that checks for an abort — the function
// calling checkAbort — and the shape of TestAbortEverySite that must reach
// it. A site no shape reaches gets a shape or is deleted; a new site gets a
// line here.
var abortWitness = map[string]string{
	"(*seqScanIter).NextBatch":   "root-scan",
	"(*indexScanIter).NextBatch": "absorbed-root-indexscan",
	"(*nlJoinIter).NextBatch":    "nl-inner-udf",
	"(*nlJoinIter).walk":         "nl-cheap-cmp",
	"(*indexNLJoinIter).probe":   "indexnl",
	"(*hashBuild).fill":          "hash-probe-build-filtered",
	"(*hashJoinIter).NextBatch":  "hash-probe-build-filtered",
	"(*mergeJoinIter).seek":      "filter-MergeJoin",
	"(*topkIter).fill":           "topk-filter",
	"MatchingTIDs":               "delete",
}

// pollSite is the site of the abort check pollHook was called from: the
// function that called checkAbort, without its package path.
func pollSite() string {
	var pcs [8]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	for f, more := frames.Next(); more; f, more = frames.Next() {
		if strings.HasSuffix(f.Function, ".(*Env).checkAbort") {
			site, _ := frames.Next()
			return site.Function[strings.LastIndex(site.Function, "exec.")+len("exec."):]
		}
	}
	return "?"
}

// abortProbe is what TestAbortEverySite's hooks keep of one run: the abort
// checks by site; the check it cancels at (the k-th of site) and the checks
// after it; and, under a budget, the charges made once the charge passed it.
type abortProbe struct {
	mu     sync.Mutex
	reads  map[string]int
	site   string
	k      int
	cancel context.CancelFunc
	fired  bool
	after  int
	budget float64
	over   int
}

func (p *abortProbe) poll(*Env) {
	site := pollSite()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fired {
		p.after++
	}
	p.reads[site]++
	if site == p.site && p.reads[site] == p.k {
		p.cancel()
		p.fired = true
	}
}

func (p *abortProbe) charge(e *Env) {
	if c := e.Charged(); p.budget > 0 && c > p.budget {
		p.mu.Lock()
		p.over++
		p.mu.Unlock()
	}
}

// abortShape is one plan of the sweep and how it runs: through Run, or,
// for the delete shape, through MatchingTIDs.
type abortShape struct {
	name string
	run  func(env *Env) (dnf bool, err error)
	env  func(p, bs int) *Env
}

// TestAbortEverySite is the abort sweep (DESIGN.md §13): over
// TestArenaMatrix's shapes and a DELETE's lookup, at Parallelism {1, 3} ×
// BatchSize {1, 256}, it runs each shape once counting its abort checks by
// site, then
//   - under an expired deadline, which must end it in ErrCanceled wrapping
//     context.DeadlineExceeded;
//   - canceled at the k-th check of each site it reached (k the first, the
//     middle and, serially, the last), which must end it in ErrCanceled
//     wrapping context.Canceled and, serially, with no abort check after
//     that one: the site stopped the run;
//   - under budgets stepped across its charge, down to just under the
//     whole of it, each of which must end it in DNF having charged at most
//     the §13 bound past the crossing: one charge per worker, two when a
//     worker's path reads an index leaf and then the heap;
//
// and after every run no page is pinned, no goroutine is left and no slab is
// held. Every site of abortWitness must be reached by its shape, and no
// other site by any.
func TestAbortEverySite(t *testing.T) {
	probe := &abortProbe{}
	pollHook, chargeHook = probe.poll, probe.charge
	defer func() { pollHook, chargeHook = nil, nil }()

	var shapes []abortShape
	for _, sh := range arenaShapes(t) {
		root := sh.root(t, false, false)
		db := sh.db
		shapes = append(shapes, abortShape{sh.name,
			func(env *Env) (bool, error) {
				res, err := Run(env, root)
				return err == nil && res.DNF, err
			},
			func(p, bs int) *Env {
				return &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0), Parallelism: p, BatchSize: bs}
			}})
	}
	db := figuresDB(t, 0.02)
	costly1, err := db.Cat.Func("costly1")
	if err != nil {
		t.Fatal(err)
	}
	del := []*query.Predicate{
		{Kind: query.KindSelCmp, Op: expr.OpLT, Left: query.ColRef{Table: "t6", Col: "ua1"}, Value: expr.I(700)},
		{Kind: query.KindFunc, Func: costly1, Args: []query.ColRef{{Table: "t6", Col: "u20"}}},
	}
	shapes = append(shapes, abortShape{"delete",
		func(env *Env) (bool, error) {
			tids, err := MatchingTIDs(env, "t6", del)
			if errors.Is(err, ErrBudgetExceeded) {
				return true, nil
			}
			if err == nil && len(tids) == 0 {
				return false, errors.New("the delete matches no row")
			}
			return false, err
		},
		func(p, bs int) *Env { return &Env{Cat: db.Cat, Pool: db.Pool, Cache: pcache.NewManager(false, 0)} }})

	reached := map[string]bool{}
	ran := 0
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ran++
			sites := map[string]bool{}
			for _, m := range []struct{ p, bs int }{{1, 1}, {1, 256}, {3, 1}, {3, 256}} {
				for site := range sweepShape(t, probe, sh, m.p, m.bs) {
					sites[site] = true
				}
			}
			for site, w := range abortWitness {
				if w == sh.name && !sites[site] {
					t.Errorf("%s never checks for an abort at %s", sh.name, site)
				}
			}
			for site := range sites {
				reached[site] = true
			}
		})
	}
	if ran < len(shapes) {
		return // a subtest was selected alone: it checked its own sites
	}
	var names []string
	for site := range reached {
		names = append(names, site)
		if _, ok := abortWitness[site]; !ok {
			t.Errorf("abort check at %s, a site abortWitness does not name", site)
		}
	}
	for site := range abortWitness {
		if !reached[site] {
			t.Errorf("no shape reaches the abort check at %s", site)
		}
	}
	sort.Strings(names)
	t.Logf("abort checks reached: %s", strings.Join(names, ", "))
}

// sweepShape runs one shape's sweep at one worker count and width (see
// TestAbortEverySite) and returns the sites its full run checks at.
func sweepShape(t *testing.T, probe *abortProbe, sh abortShape, p, bs int) map[string]bool {
	t.Helper()
	cfg := fmt.Sprintf("%s P=%d BS=%d", sh.name, p, bs)
	// run runs the shape once with the probe reset to site, k and budget,
	// and checks that it left nothing behind.
	run := func(what string, ctx context.Context, cancel context.CancelFunc, site string, k int, budget float64) (bool, error) {
		*probe = abortProbe{reads: map[string]int{}, site: site, k: k, cancel: cancel, budget: budget}
		env := sh.env(p, bs)
		env.Ctx, env.Budget = ctx, budget
		baseline := runtime.NumGoroutine()
		dnf, err := sh.run(env)
		waitTeardown(t, env, baseline)
		arenaIdle(t, cfg+" "+what, env)
		return dnf, err
	}

	// The full run, under a budget it never reaches, so that every charge
	// goes through the budget's decision as under any budget.
	var full float64
	var reads map[string]int
	{
		env := sh.env(p, bs)
		env.Budget = math.MaxFloat64
		*probe = abortProbe{reads: map[string]int{}}
		dnf, err := sh.run(env)
		if err != nil || dnf {
			t.Fatalf("%s: the full run ends in %v (DNF %v)", cfg, err, dnf)
		}
		full, reads = env.Charged(), probe.reads
	}
	sites := map[string]bool{}
	for site := range reads {
		sites[site] = true
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	_, err := run("expired deadline", ctx, cancel, "", 0, 0)
	cancel()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("%s under an expired deadline: want ErrCanceled wrapping DeadlineExceeded, got %v", cfg, err)
	}

	for site, n := range reads {
		ks := []int{1, (n + 1) / 2}
		if p == 1 {
			ks = append(ks, n)
		}
		for i, k := range ks {
			if i > 0 && k == ks[i-1] {
				continue
			}
			what := fmt.Sprintf("canceled at check %d of %d at %s", k, n, site)
			ctx, cancel := context.WithCancel(context.Background())
			_, err := run(what, ctx, cancel, site, k, 0)
			cancel()
			if !probe.fired {
				if p == 1 || k == 1 {
					t.Fatalf("%s %s: the run checks only %d times there", cfg, what, probe.reads[site])
				}
				continue // a parallel run may check a consumer's site less often
			}
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("%s %s: want ErrCanceled wrapping context.Canceled, got %v", cfg, what, err)
			}
			if p == 1 && probe.after > 0 {
				t.Fatalf("%s %s: %d abort checks after it", cfg, what, probe.after)
			}
		}
	}

	perWorker := 1
	for site := range sites {
		if site == "(*indexScanIter).NextBatch" || site == "(*indexNLJoinIter).probe" {
			perWorker = 2
		}
	}
	for _, f := range []float64{0.05, 0.3, 0.6, 0.9, 1 - 1e-9} {
		budget := full * f
		what := fmt.Sprintf("budget %v of %v", budget, full)
		dnf, err := run(what, nil, nil, "", 0, budget)
		if err != nil || !dnf {
			t.Fatalf("%s %s: want DNF, got %v (DNF %v)", cfg, what, err, dnf)
		}
		if past := probe.over - 1; past > perWorker*p {
			t.Fatalf("%s %s: %d charges past the one that crossed it, the bound is %d", cfg, what, past, perWorker*p)
		}
	}
	return sites
}
