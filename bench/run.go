package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"predplace"
)

const (
	// runSeconds is the length of a measured pass; BENCHMARK.json's
	// run_seconds names the same number for the driver.
	runSeconds = 15
	// setupRepeats set-ups are timed per run and the median reported, so
	// that one slow allocation burst does not read as a set-up regression.
	setupRepeats = 5
	// warmupOps run before any timing, so that the pool, the plan cache and
	// the Go heap are at their steady size.
	warmupOps = 5
	// warmupTime bounds the warm-up of server_mix, whose ops are short.
	warmupTime = time.Second
)

// layerAcc collects, on the traced pass only, what each operation's Result
// says about the layers below the facade. Its methods accept a nil receiver,
// which is the untraced pass.
type layerAcc struct {
	mu        sync.Mutex
	fold      *execFold
	execNs    int64 // inside PreparedStatement.Exec
	prepareNs int64 // inside DB.Prepare
	seqReads  int64
	randReads int64
	cacheHits int64
	cacheMiss int64
	cacheEnts int64
	respBytes int64
}

func newLayerAcc() *layerAcc { return &layerAcc{fold: newExecFold()} }

func (a *layerAcc) addExec(ns int64, res *predplace.Result) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.execNs += ns
	a.fold.add(res.Profile)
	a.seqReads += res.Stats.IO.SeqReads
	a.randReads += res.Stats.IO.RandReads
	a.cacheHits += res.Stats.CacheHits
	a.cacheMiss += res.Stats.CacheMisses
	a.cacheEnts += int64(res.Stats.CacheEntries)
}

func (a *layerAcc) addPrepare(ns int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.prepareNs += ns
	a.mu.Unlock()
}

func (a *layerAcc) addResponse(n int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.respBytes += int64(n)
	a.mu.Unlock()
}

// pass is the outcome of one closed-loop pass over a workload.
type pass struct {
	ops     int
	failed  int
	elapsed time.Duration
	opMs    []float64 // per-op time inside the system, by op index
	speed   float64   // the pass's speed factor (speed.go)
	refNs   int64     // wall time per client spent in reference units
	charged []float64 // per-op charged cost, by op index
	allocB  uint64    // MemStats.TotalAlloc delta
	mallocs uint64    // MemStats.Mallocs delta
	gcCPU   float64   // share of available CPU the collector used
	// plan-cache deltas over the pass (DB.PlanCacheStats)
	planHits, planMisses, planEvictions int64
}

// runPass drives inst with the given number of closed-loop clients — each
// sends its next operation only after the previous one returned — until the
// clock passes dur or maxOps operations have started (0 = no cap).
func runPass(inst instance, clients int, dur time.Duration, maxOps int, tr *tracer, acc *layerAcc) *pass {
	type sample struct {
		i int
		r opResult
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		samples = make([][]sample, clients)
		meters  = make([]*refMeter, clients)
	)
	refBytes, refMallocs := refAlloc()
	for c := range meters {
		meters[c] = newRefMeter(c)
	}
	h0, m0, e0, _ := inst.db().PlanCacheStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if (maxOps > 0 && i >= maxOps) || (maxOps == 0 && !time.Now().Before(deadline)) {
					return
				}
				samples[c] = append(samples[c], sample{i, inst.op(i, tr, acc)})
				meters[c].tick()
			}
		}(c)
	}
	wg.Wait()
	p := &pass{elapsed: time.Since(start)}
	runtime.ReadMemStats(&ms1)
	p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	h1, m1, e1, _ := inst.db().PlanCacheStats()
	p.planHits, p.planMisses, p.planEvictions = h1-h0, m1-m0, e1-e0
	var refs []refSample
	for _, m := range meters {
		// The unit newRefMeter ran came before the first reading.
		p.allocB -= refBytes * uint64(len(m.samples)-1)
		p.mallocs -= refMallocs * uint64(len(m.samples)-1)
		p.refNs += m.busyNs / int64(clients)
		refs = append(refs, m.samples...)
	}
	p.speed = speedFactor(refs)
	// GCCPUFraction is cumulative since process start; the share within the
	// pass follows from the two readings weighted by process age.
	p.gcCPU = gcShare(ms0.GCCPUFraction, ms1.GCCPUFraction, start, p.elapsed)
	for _, s := range samples {
		p.ops += len(s)
	}
	p.opMs = make([]float64, p.ops)
	p.charged = make([]float64, p.ops)
	for _, cs := range samples {
		for _, s := range cs {
			p.opMs[s.i] = float64(s.r.ns) / 1e6
			p.charged[s.i] = s.r.charged
			if !s.r.ok {
				p.failed++
			}
		}
	}
	return p
}

var processStart = time.Now()

func gcShare(f0, f1 float64, start time.Time, elapsed time.Duration) float64 {
	age0 := start.Sub(processStart).Seconds()
	age1 := age0 + elapsed.Seconds()
	if elapsed <= 0 {
		return 0
	}
	return max(0, (f1*age1-f0*age0)/elapsed.Seconds())
}

// chargedPerOp averages charged cost over whole blocks of the input stream.
// Rounds of fixed statements charge the same every time; returning that
// value itself keeps the metric free of summation rounding, so that it
// repeats to the last digit however many rounds the clock allowed.
func (p *pass) chargedPerOp(block int) float64 {
	n := p.ops / block * block
	if n == 0 {
		n = p.ops
	}
	vals := p.charged[:n]
	if slices.Min(vals) == slices.Max(vals) {
		return vals[0]
	}
	return mean(vals)
}

// timedOpen performs one set-up and returns its duration in seconds.
func timedOpen(w *workload, e *env) (instance, float64, error) {
	scale := scaleOf(w, e)
	var want map[string]outcome
	if scale == w.scale {
		want = e.golden[w.name]
	}
	runtime.GC()
	t0 := time.Now()
	inst, err := w.open(e, scale, want)
	return inst, time.Since(t0).Seconds(), err
}

// gate is the paper's section-5 debugging invariant: every statement must
// compute the same multiset of rows under PushDown and under Migration.
func gate(inst instance) error {
	for _, g := range inst.gateSQL() {
		a, err := inst.db().Query(g.sql, predplace.PushDown)
		if err != nil {
			return fmt.Errorf("gate %s under PushDown: %w", g.name, err)
		}
		b, err := inst.db().Query(g.sql, predplace.Migration)
		if err != nil {
			return fmt.Errorf("gate %s under Migration: %w", g.name, err)
		}
		if len(a.Rows) != len(b.Rows) || rowsChecksum(a.Cols, a.Rows) != rowsChecksum(b.Cols, b.Rows) {
			return fmt.Errorf("gate %s: PushDown returned %d rows (checksum %x), Migration %d (%x)",
				g.name, len(a.Rows), rowsChecksum(a.Cols, a.Rows), len(b.Rows), rowsChecksum(b.Cols, b.Rows))
		}
	}
	return nil
}

// ready gates and warms a fresh instance; it returns the client count and
// the op cap (0 = run for the pass's duration) of the passes to follow.
func ready(inst instance, w *workload, e *env) (clients, maxOps int, err error) {
	if err := gate(inst); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", w.name, err)
	}
	clients = w.clients(e.c)
	warmup(inst, clients, e.quick)
	if e.quick {
		maxOps = w.quickOps
	}
	runtime.GC()
	return clients, maxOps, nil
}

// warmup runs untimed operations. Round-based workloads need a handful;
// server_mix runs for a second so that the plan cache reaches its steady
// mix of hits and evictions.
func warmup(inst instance, clients int, quick bool) {
	if inst.blockOps() > 1 && !quick {
		runPass(inst, clients, warmupTime, 0, nil, nil)
		return
	}
	runPass(inst, clients, 0, warmupOps, nil, nil)
}

// measured is a workload's end-to-end result: the untraced pass.
type measured struct {
	Metrics map[string]float64 `json:"metrics"`
	// Runs holds each repeat's metrics when -repeat asked for several;
	// Metrics is then their median.
	Runs      []map[string]float64 `json:"runs,omitempty"`
	Samples   int                  `json:"samples"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	// Raw holds the wall-clock values behind the three timing metrics, which
	// are reported at reference speed (speed.go), and the speed factors.
	Raw map[string]float64 `json:"raw"`
	// Tail holds op_ms_p90 and, where at least 1000 samples stand behind it
	// (server_mix), op_ms_p99. They are printed but carry no bound: see the
	// note on endToEnd.
	Tail    map[string]float64 `json:"tail"`
	Failure string             `json:"failure,omitempty"`
}

// runMeasured is the --trace 0 flow: repeated set-up, gate, warm-up, one
// untraced pass, and for server_mix the serial re-run of a sample.
func runMeasured(w *workload, e *env, dur time.Duration) (*measured, error) {
	repeats := setupRepeats
	if e.quick {
		repeats = 1
	}
	var (
		inst   instance
		setups []float64
		meter  = newRefMeter(0)
	)
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		var s float64
		var err error
		if inst, s, err = timedOpen(w, e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, s)
		// Collect the load's garbage first, or the reference units would
		// time the collector marking the new database.
		runtime.GC()
		for u := 0; u < 3; u++ {
			meter.unit()
		}
	}
	setupSpeed := speedFactor(meter.samples)
	defer inst.close()
	clients, maxOps, err := ready(inst, w, e)
	if err != nil {
		return nil, err
	}
	p := runPass(inst, clients, dur, maxOps, nil, nil)
	if m, ok := inst.(*serverMix); ok {
		p.failed += m.verifySample(e.seed, p.ops)
	}
	// The clients' reference units are think time, not the system's.
	opsPerS := float64(p.ops) / (p.elapsed.Seconds() - float64(p.refNs)/1e9)
	out := &measured{
		Samples: p.ops, Attempted: p.ops, Failed: p.failed, Failure: inst.failure(),
		Metrics: map[string]float64{
			"setup_s":         median(setups) / setupSpeed,
			"ops_per_s":       opsPerS * p.speed,
			"op_ms_p50":       percentile(p.opMs, 50) / p.speed,
			"charged_per_op":  p.chargedPerOp(inst.blockOps()),
			"alloc_mb_per_op": float64(p.allocB) / float64(p.ops) / (1 << 20),
		},
		Raw: map[string]float64{
			"setup_s": median(setups), "setup_speed_factor": setupSpeed,
			"ops_per_s": opsPerS, "op_ms_p50": percentile(p.opMs, 50), "speed_factor": p.speed,
		},
	}
	out.Tail = map[string]float64{"op_ms_p90": percentile(p.opMs, 90)}
	if p.ops >= 1000 {
		out.Tail["op_ms_p99"] = percentile(p.opMs, 99)
	}
	return out, nil
}

// mergeRuns folds repeats of one workload's measured pass into one result:
// medians of the metrics, sums of the counts.
func mergeRuns(runs []*measured) *measured {
	if len(runs) == 1 {
		return runs[0]
	}
	out := &measured{Metrics: map[string]float64{}, Samples: runs[0].Samples, Raw: runs[0].Raw, Tail: runs[0].Tail}
	for _, r := range runs {
		out.Runs = append(out.Runs, r.Metrics)
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		if out.Failure == "" {
			out.Failure = r.Failure
		}
	}
	for name := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name]
		}
		out.Metrics[name] = median(vals)
	}
	return out
}

// updateGolden runs every fixed statement once at its workload's committed
// scale and writes the outcomes to path.
func updateGolden(e *env, path string) error {
	g := goldenFile{}
	for _, w := range workloads {
		inst, err := w.open(e, w.scale, nil)
		if err != nil {
			return err
		}
		g[w.name] = map[string]outcome{}
		switch inst := inst.(type) {
		case *rounds:
			if r := inst.op(0, nil, nil); !r.ok {
				return fmt.Errorf("%s: %s", w.name, inst.failure())
			}
			for _, s := range inst.stmts {
				g[w.name][s.name] = *s.ref // pinned by the first execution
			}
		case *serverMix:
			for _, cl := range mixClasses {
				if cl.domain != nil {
					continue // seed-dependent constants: checked by re-running
				}
				res, err := inst.database.Query(cl.sql(0), predplace.Migration)
				if err != nil {
					return err
				}
				g[w.name][cl.name] = resultOutcome(res)
			}
		}
		inst.close()
	}
	return g.write(path)
}
