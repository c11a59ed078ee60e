package exec

// Per-operator runtime profiling (EXPLAIN ANALYZE v2). With Env.Profile on,
// Build wraps every plan node's iterator in a profIter that measures wall
// time and attributes physical I/O around each Open/NextBatch/Close call, and
// compiled predicates count evaluations, invocations, and cache traffic into
// the plan node they belong to. The collected counters are assembled into an
// OpProfile tree mirroring the plan, pairing the optimizer's per-node
// estimates with what actually happened.
//
// Profiling is strictly observational: wall time is never part of the
// charged cost (the paper's measurement is deterministic I/O + invocation
// charges; wall clock would make it machine-dependent), and with Profile off
// none of this code runs — the default path stays allocation-free per row
// and charges byte-identical costs.

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// opCounters accumulates one plan node's runtime counters. All fields are
// atomics because inside an exchange's segment every worker's copy of the
// node updates them, from several goroutines at once.
type opCounters struct {
	rows    atomic.Int64 // rows produced: OpProfile.ActRows
	opens   atomic.Int64
	batches atomic.Int64
	wallNs  atomic.Int64
	ioSeq   atomic.Int64
	ioRand  atomic.Int64
	ioWrite atomic.Int64
	// predicate-side counters, fed by compiledPred
	predEvals   atomic.Int64
	invocations atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// predicate-transfer counters, fed by the scan's probe gates
	transferProbes atomic.Int64
	transferPruned atomic.Int64
	// top-k counters: heap admissions/evictions for TopK, input short-
	// circuits (the child was cut off with rows still unproduced) for Limit
	heapPushed   atomic.Int64
	heapEvicted  atomic.Int64
	shortCircuit atomic.Int64
	// funcCharge holds the float64 bits of Σ invocations × per-call cost
	// attributed to this node (CAS-accumulated).
	funcCharge atomic.Uint64
}

// addCharge accumulates per-call function cost into the node's counters.
func (c *opCounters) addCharge(v float64) {
	for {
		old := c.funcCharge.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if c.funcCharge.CompareAndSwap(old, nv) {
			return
		}
	}
}

// charge returns the accumulated function charge.
func (c *opCounters) charge() float64 {
	return math.Float64frombits(c.funcCharge.Load())
}

// addIO attributes an I/O delta to the node.
func (c *opCounters) addIO(d storage.IOStats) {
	if d.SeqReads != 0 {
		c.ioSeq.Add(d.SeqReads)
	}
	if d.RandReads != 0 {
		c.ioRand.Add(d.RandReads)
	}
	if d.Writes != 0 {
		c.ioWrite.Add(d.Writes)
	}
}

// io snapshots the attributed I/O.
func (c *opCounters) io() storage.IOStats {
	return storage.IOStats{
		SeqReads:  c.ioSeq.Load(),
		RandReads: c.ioRand.Load(),
		Writes:    c.ioWrite.Load(),
	}
}

// profIter is the instrumented tracing wrapper Build installs around every
// operator when profiling is on. It counts the rows the node produces
// (OpProfile.ActRows, authoritative for actual cardinalities) and measures
// wall time and physical-I/O deltas around each call.
//
// Timings and I/O are inclusive: a parent's window spans its children's work,
// matching the cumulative semantics of the optimizer's per-node EstCost. An
// exchange is measured here like any operator, once, on its consumer's side
// (the wall time is what the consumer waited); its workers keep reading
// between the consumer's calls, so the attribution of a page to one node is
// best-effort under parallelism. Inside a segment every worker's copy of a
// node has a wrapper of its own adding to the node's counters: rows and
// predicate counts stay exact, Opens and Batches count every copy's calls,
// and wall time and I/O are sums over workers whose windows overlap — they
// can exceed the root's. The root's own windows are contiguous (between its
// calls nothing but the query's workers runs, and what they read is the
// root's too), so its I/O is the query's, exactly.
type profIter struct {
	e  *Env
	in Iterator
	c  *opCounters
	// root marks the wrapper Build returns; once it has been called, last is
	// where its previous I/O window ended and its next one starts.
	root   bool
	called bool
	last   storage.IOStats
}

// ioStart opens an I/O window.
func (p *profIter) ioStart() storage.IOStats {
	if p.root && p.called {
		return p.last
	}
	return p.e.ioStats()
}

// ioEnd closes the window ioStart opened at io0.
func (p *profIter) ioEnd(io0 storage.IOStats) {
	now := p.e.ioStats()
	p.c.addIO(now.Sub(io0))
	p.last, p.called = now, true
}

func (p *profIter) Open() error {
	p.c.opens.Add(1)
	t0 := time.Now()
	io0 := p.ioStart()
	err := p.in.Open()
	p.ioEnd(io0)
	p.c.wallNs.Add(int64(time.Since(t0)))
	return err
}

func (p *profIter) NextBatch(dst []expr.Row) (int, error) {
	t0 := time.Now()
	io0 := p.ioStart()
	n, err := p.in.NextBatch(dst)
	p.ioEnd(io0)
	p.c.wallNs.Add(int64(time.Since(t0)))
	if err != nil {
		return 0, err
	}
	if n > 0 {
		p.c.batches.Add(1)
		p.c.rows.Add(int64(n))
	}
	return n, nil
}

func (p *profIter) Close() error {
	t0 := time.Now()
	io0 := p.ioStart()
	err := p.in.Close()
	p.ioEnd(io0)
	p.c.wallNs.Add(int64(time.Since(t0)))
	return err
}

// OpProfile is one plan node's runtime profile, mirroring the plan tree.
// Estimates come from the optimizer's per-node annotations; actuals from the
// executor's counters. WallNs and IO are inclusive of children (cumulative,
// like EstCost); predicate counters belong to the node alone.
type OpProfile struct {
	// Op is the node's one-line description (plan.Node.Describe).
	Op string `json:"op"`
	// EstRows and EstCost are the optimizer's estimates (EstCost cumulative).
	EstRows float64 `json:"est_rows"`
	EstCost float64 `json:"est_cost"`
	// EstSel is the estimated selectivity of the node's predicate (0 when
	// the node has none).
	EstSel float64 `json:"est_sel,omitempty"`
	// ActRows is the number of rows the node actually produced, accumulated
	// across nested-loop rescans (never n/a: a node that was not reached
	// reports 0).
	ActRows int64 `json:"actual_rows"`
	// RowsIn is the sum of the children's ActRows (0 for leaves).
	RowsIn int64 `json:"rows_in"`
	// ErrFactor is the cardinality estimation error max(act/est, est/act),
	// ≥ 1; 1 means a perfect estimate.
	ErrFactor float64 `json:"err_factor"`
	// Opens counts Open calls (nested-loop rescans reopen the inner).
	Opens int64 `json:"opens,omitempty"`
	// Batches counts non-empty NextBatch calls.
	Batches int64 `json:"batches,omitempty"`
	// WallNs is wall time inside the operator, children included. Wall time
	// is observational only — it is never part of the charged cost.
	WallNs int64 `json:"wall_ns"`
	// IO is the physical page traffic attributed to the operator (children
	// included; best-effort attribution under parallelism, exact at the root).
	IO storage.IOStats `json:"io"`
	// PredEvals counts predicate evaluations at this node.
	PredEvals int64 `json:"pred_evals,omitempty"`
	// Invocations counts user-defined function calls at this node.
	Invocations int64 `json:"invocations,omitempty"`
	// CacheHits and CacheMisses count this node's predicate-cache traffic.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// FuncCharge is Σ invocations × per-call cost at this node.
	FuncCharge float64 `json:"func_charge,omitempty"`
	// TransferProbes and TransferPruned count this scan's received-filter
	// probes and the rows they rejected (predicate transfer only).
	TransferProbes int64 `json:"transfer_probes,omitempty"`
	TransferPruned int64 `json:"transfer_pruned,omitempty"`
	// HeapPushed and HeapEvicted count a TopK node's bounded-heap admissions
	// and displacements (pushed − evicted = rows retained at the end).
	HeapPushed  int64 `json:"heap_pushed,omitempty"`
	HeapEvicted int64 `json:"heap_evicted,omitempty"`
	// ShortCircuit is 1 when a Limit node stopped pulling with its child
	// still producing — the early termination actually cut work off.
	ShortCircuit int64 `json:"short_circuit,omitempty"`
	// Children mirror the plan node's inputs (outer first for joins).
	Children []*OpProfile `json:"children,omitempty"`
}

// ErrFactorCap is the ceiling of ErrFactor: an estimate that is off by an
// unbounded factor (one side zero) reports this value instead of +Inf, which
// encoding/json cannot marshal. Renderers print anything at the cap as ×inf.
const ErrFactorCap = 1e9

// errFactor is the symmetric cardinality-error ratio: max(a/e, e/a), with
// zero handled so a correct zero-estimate reports 1 and a wrong one reports
// ErrFactorCap.
func errFactor(est float64, act int64) float64 {
	a := float64(act)
	if est <= 0 && a <= 0 {
		return 1
	}
	if est <= 0 || a <= 0 {
		return ErrFactorCap
	}
	f := a / est
	if f < 1 {
		f = 1 / f
	}
	if f > ErrFactorCap {
		return ErrFactorCap
	}
	return f
}

// estSel returns the selectivity estimate attached to a node's predicate.
func estSel(n plan.Node) float64 {
	if f, ok := n.(*plan.Filter); ok {
		return f.Pred.Selectivity
	}
	return 0
}

// assembleProfile builds the OpProfile tree for a finished query from the
// profiling counters. A node the data flow never reached (an empty outer's
// nested-loop inner, the probe-driven inner chain of an index nested loop)
// gets its counters here, and truthfully reports 0 rows.
func assembleProfile(e *Env, n plan.Node) *OpProfile {
	c := e.nodeProf(n)
	rows := c.rows.Load()
	// One wrapper timed a scan and the filters it absorbed, as their top
	// filter: each reports that window, so the filters' self time is zero and
	// the scan's is all of it.
	timed := c
	if r := e.runs[n]; r != nil {
		timed = e.nodeProf(r.top())
	}
	p := &OpProfile{
		Op:             n.Describe(),
		EstRows:        n.Card(),
		EstCost:        n.Cost(),
		EstSel:         estSel(n),
		ActRows:        rows,
		ErrFactor:      errFactor(n.Card(), rows),
		Opens:          timed.opens.Load(),
		Batches:        timed.batches.Load(),
		WallNs:         timed.wallNs.Load(),
		IO:             timed.io(),
		PredEvals:      c.predEvals.Load(),
		Invocations:    c.invocations.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		FuncCharge:     c.charge(),
		TransferProbes: c.transferProbes.Load(),
		TransferPruned: c.transferPruned.Load(),
		HeapPushed:     c.heapPushed.Load(),
		HeapEvicted:    c.heapEvicted.Load(),
		ShortCircuit:   c.shortCircuit.Load(),
	}
	for _, child := range n.Children() {
		cp := assembleProfile(e, child)
		p.RowsIn += cp.ActRows
		p.Children = append(p.Children, cp)
	}
	return p
}

// MaxErr returns the largest cardinality-error factor in the profile tree
// and the description of the node it occurs at.
func (p *OpProfile) MaxErr() (float64, string) {
	worst, at := p.ErrFactor, p.Op
	for _, c := range p.Children {
		if e, op := c.MaxErr(); e > worst {
			worst, at = e, op
		}
	}
	return worst, at
}

// Totals sums the tree's own-node predicate counters (evals, invocations,
// cache traffic). WallNs and IO are not summed — they are inclusive at the
// root already.
func (p *OpProfile) Totals() (evals, invocations, hits, misses int64) {
	evals, invocations, hits, misses = p.PredEvals, p.Invocations, p.CacheHits, p.CacheMisses
	for _, c := range p.Children {
		e, i, h, m := c.Totals()
		evals += e
		invocations += i
		hits += h
		misses += m
	}
	return evals, invocations, hits, misses
}

// RenderAnalyzed is EXPLAIN ANALYZE's text of a run of root made with
// Env.Profile on: the plan tree with each node's estimated and actual rows
// and their error factor, a TopK's heap traffic and a Limit's short-circuit
// on the root's line (both are root-only), then the profile's total line
// and, with transfer on, the prepass's line.
func RenderAnalyzed(root plan.Node, res *Result) string {
	p := res.Profile
	of := profiles(root, p)
	var b strings.Builder
	b.WriteString(plan.RenderWith(root, func(n plan.Node) string {
		np := of[n]
		s := fmt.Sprintf(" est=%.0f actual=%d (%s)", np.EstRows, np.ActRows, errString(np.ErrFactor))
		if n == root {
			if np.HeapPushed > 0 || np.HeapEvicted > 0 {
				s += fmt.Sprintf(" heap(pushed=%d evicted=%d)", np.HeapPushed, np.HeapEvicted)
			}
			if np.ShortCircuit > 0 {
				s += " short-circuit"
			}
		}
		return s
	}))
	// The total line: inclusive wall time and I/O from the root window,
	// predicate totals, and the worst cardinality estimate in the tree.
	evals, inv, hits, misses := p.Totals()
	fmt.Fprintf(&b, "total: wall=%.1fms io=%d predEvals=%d invocations=%d",
		float64(p.WallNs)/1e6, p.IO.Total(), evals, inv)
	if hits != 0 || misses != 0 {
		fmt.Fprintf(&b, " cache=%d/%d", hits, hits+misses)
	}
	maxErr, at := p.MaxErr()
	fmt.Fprintf(&b, " maxErr=%s @ %s\n", errString(maxErr), at)
	// The transfer line: prepass filters and their measured effect. FP
	// rates print only when measured (-1 means unmeasured).
	if t := res.Stats.Transfer; t != nil {
		fmt.Fprintf(&b, "transfer: classes=%d filters=%d built=%d probes=%d pruned=%d charged=%.1f",
			t.Classes, t.FiltersBuilt, t.BuildRows, t.Probes, t.Pruned, t.PrepassCharged+t.ProbeCharge)
		if t.FPActual >= 0 {
			fmt.Fprintf(&b, " fp=%.4f (est %.4f)", t.FPActual, t.FPEst)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// profiles maps each node of the plan tree root to its record in p, the
// profile tree of a run of root (which mirrors it, children in order).
func profiles(root plan.Node, p *OpProfile) map[plan.Node]*OpProfile {
	of := make(map[plan.Node]*OpProfile)
	var pair func(plan.Node, *OpProfile)
	pair = func(n plan.Node, q *OpProfile) {
		of[n] = q
		for i, c := range n.Children() {
			pair(c, q.Children[i])
		}
	}
	pair(root, p)
	return of
}

// errString formats an error factor, printing one at the cap as ×inf.
func errString(f float64) string {
	if f >= ErrFactorCap {
		return "×inf"
	}
	return fmt.Sprintf("×%.2f", f)
}
