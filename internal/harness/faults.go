package harness

// The fault sweep: every benchmark query runs under injected storage read
// faults and under an aggressive deadline, across the executor's serial,
// parallel, tuple-at-a-time, and batched configurations. The contract under
// test is the executor's failure discipline, not the paper's figures: each
// run must end in exactly one of the acceptable outcomes — a clean result
// identical to the fault-free baseline, an error wrapping the injected
// fault, a DNF, or a deadline error — never a panic, a hang, or a silently
// truncated result. After every run, faulted or not, the leak audit asserts
// zero pinned buffer-pool frames and the goroutine baseline restored.
// Fault and timeout runs are excluded from every figure reproduction.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"predplace"
)

// benchQueries is the figure-query workload the sweep runs.
var benchQueries = []struct {
	name string
	sql  string
}{
	{"query1", Query1},
	{"query2", Query2},
	{"query3", Query3},
	{"query4", Query4},
	{"query5", Query5},
}

// faultConfigs are the executor configurations the sweep crosses faults
// with: serial and parallel, tuple-at-a-time (BatchSize 1) and batched
// (BatchSize 0 = tuned default). Parallelism 0 stands for the sweep's
// worker fan-out.
var faultConfigs = []struct {
	name        string
	parallelism int
	batchSize   int
}{
	{"serial/tuple", 1, 1},
	{"serial/batch", 1, 0},
	{"parallel/tuple", 0, 1},
	{"parallel/batch", 0, 0},
}

// FaultRun is one query execution under injected faults or a deadline.
type FaultRun struct {
	Query     string
	Config    string
	Seed      int64
	FailReadN int64
	// Outcome is "clean", "fault", "dnf", or "timeout".
	Outcome string
	Err     string
	// OK is false when the run violated the failure contract (wrong rows,
	// unexpected error class, or a leak); Detail says how.
	OK     bool
	Detail string
}

// faultTimeout is the deadline of the sweep's timeout leg — short enough
// that large queries trip it, but a query finishing first is also a valid
// outcome (the leg asserts the error class and teardown, not that the
// deadline always fires).
const faultTimeout = 2 * time.Millisecond

// FaultSweep runs Queries 1–5 under injected read faults and a deadline and
// returns every run; the sweep passed when each run is OK. For each query
// it first measures the fault-free read count and result set (the
// baseline), then for each seed derives a read index to fail and runs the
// query under every executor configuration, and finally runs one timeout
// leg per configuration. workers is the parallel fan-out; seeds is the
// number of per-query fault sites tried.
func (h *Harness) FaultSweep(workers, seeds int) ([]FaultRun, error) {
	if workers < 2 {
		workers = 2
	}
	if seeds < 1 {
		seeds = 1
	}
	h.DB.SetOptions(func(c *predplace.Config) { c.Caching, c.Budget = false, 0 })
	defer h.DB.SetFaults(nil)
	defer h.DB.SetOptions(func(c *predplace.Config) { c.Timeout, c.Parallelism, c.BatchSize = 0, 1, 0 })

	var runs []FaultRun
	for _, q := range benchQueries {
		// Fault-free baseline: a zero FaultConfig injects nothing but counts
		// I/Os, sizing the fault sites against the query's real read count.
		h.DB.SetOptions(func(c *predplace.Config) { c.Timeout, c.Parallelism, c.BatchSize = 0, 1, 0 })
		// Faults fire on physical reads only; start cold so every page read
		// of the query is observable (and the fault site space is the full
		// read sequence, reproducible run to run).
		if err := h.DB.EvictPool(); err != nil {
			return nil, fmt.Errorf("%s baseline: %w", q.name, err)
		}
		h.DB.SetFaults(&predplace.FaultConfig{})
		base, err := h.DB.Query(q.sql, predplace.Migration)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", q.name, err)
		}
		reads, _, _ := h.DB.FaultCounts()
		h.DB.SetFaults(nil)
		if reads == 0 {
			return nil, fmt.Errorf("%s baseline: no page reads observed", q.name)
		}
		baseRows := CanonRows(base, false)

		for seed := int64(1); seed <= int64(seeds); seed++ {
			// The fault site is drawn deterministically per (query, seed), so
			// a failing sweep is reproducible from its report alone.
			failN := 1 + rand.New(rand.NewSource(seed*7919)).Int63n(reads)
			for _, cfg := range faultConfigs {
				runs = append(runs, h.faultRun(q.name, q.sql, cfg.name, seed, failN,
					resolveWorkers(cfg.parallelism, workers), cfg.batchSize, baseRows))
			}
		}
		for _, cfg := range faultConfigs {
			runs = append(runs, h.timeoutRun(q.name, q.sql, cfg.name,
				resolveWorkers(cfg.parallelism, workers), cfg.batchSize, baseRows))
		}
	}
	return runs, nil
}

// resolveWorkers maps a faultConfigs parallelism entry to a fan-out.
func resolveWorkers(p, workers int) int {
	if p == 0 {
		return workers
	}
	return p
}

// faultRun executes one query under an injected read fault and classifies
// the outcome against the failure contract.
func (h *Harness) faultRun(name, sql, cfg string, seed, failN int64,
	workers, batchSize int, baseRows []string) FaultRun {
	run := FaultRun{Query: name, Config: cfg, Seed: seed, FailReadN: failN}
	h.DB.SetOptions(func(c *predplace.Config) { c.Timeout, c.Parallelism, c.BatchSize = 0, workers, batchSize })
	// Cold start before arming the injector: eviction's own write-backs must
	// not consume fault sites, and the run's physical read sequence must
	// match the baseline's so failN lands on the same page access.
	if err := h.DB.EvictPool(); err != nil {
		run.Outcome = "unexpected"
		run.Err = err.Error()
		run.Detail = "pool eviction before fault run failed"
		return run
	}
	h.DB.SetFaults(&predplace.FaultConfig{Seed: seed, FailReadN: failN})
	audit := StartLeakAudit()
	res, err := h.DB.Query(sql, predplace.Migration)
	h.DB.SetFaults(nil)
	classifyFaultOutcome(&run, res, err, baseRows)
	if lerr := audit.Verify(h.DB); lerr != nil {
		run.OK = false
		run.Detail = strings.TrimSpace(run.Detail + " " + lerr.Error())
	}
	return run
}

// timeoutRun executes one query under an aggressive deadline; a clean
// finish and a deadline error are both acceptable, anything else is not.
func (h *Harness) timeoutRun(name, sql, cfg string, workers, batchSize int,
	baseRows []string) FaultRun {
	run := FaultRun{Query: name, Config: cfg + "/timeout"}
	h.DB.SetOptions(func(c *predplace.Config) { c.Parallelism, c.BatchSize, c.Timeout = workers, batchSize, faultTimeout })
	audit := StartLeakAudit()
	res, err := h.DB.Query(sql, predplace.Migration)
	h.DB.SetOptions(func(c *predplace.Config) { c.Timeout = 0 })
	switch {
	case err == nil && !res.DNF:
		run.Outcome = "clean"
		run.OK = slices.Equal(CanonRows(res, false), baseRows)
		if !run.OK {
			run.Detail = "clean finish with wrong rows"
		}
	case errors.Is(err, context.DeadlineExceeded):
		run.Outcome = "timeout"
		run.OK = true
		run.Err = err.Error()
	default:
		run.Outcome = "unexpected"
		run.OK = false
		if err != nil {
			run.Err = err.Error()
		}
		run.Detail = "timeout leg must finish cleanly or exceed the deadline"
	}
	if lerr := audit.Verify(h.DB); lerr != nil {
		run.OK = false
		run.Detail = strings.TrimSpace(run.Detail + " " + lerr.Error())
	}
	return run
}

// classifyFaultOutcome sorts a fault run's (result, error) into the
// contract's outcome classes.
func classifyFaultOutcome(run *FaultRun, res *predplace.Result, err error, baseRows []string) {
	switch {
	case err == nil && res.DNF:
		// Unreachable without a budget, but a DNF is a legal abort outcome.
		run.Outcome = "dnf"
		run.OK = true
	case err == nil:
		run.Outcome = "clean"
		run.OK = slices.Equal(CanonRows(res, false), baseRows)
		if !run.OK {
			run.Detail = "clean finish with rows differing from fault-free baseline"
		}
	case errors.Is(err, predplace.ErrInjectedFault):
		run.Outcome = "fault"
		run.OK = true
		run.Err = err.Error()
	default:
		run.Outcome = "unexpected"
		run.OK = false
		run.Err = err.Error()
		run.Detail = "error does not wrap the injected fault"
	}
}
