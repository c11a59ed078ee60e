package catalog

// Feedback-driven statistics (ROADMAP item 2, after arXiv 1806.08384): the
// executor's per-operator profile pairs every estimate with what actually
// happened, and this store closes the loop. Observations harvested at query
// end accumulate as *pending* feedback; once any pending observation's error
// factor crosses the configured threshold, Catalog.ApplyFeedback promotes
// the batch — overriding predicate selectivities ahead of histogram/default
// guesses and refreshing registered functions' cost/selectivity metadata —
// and bumps the catalog version exactly once, so version-keyed plan caches
// re-optimize against the corrected statistics.

import (
	"math"
	"sync"

	"predplace/internal/expr"
)

// FeedbackErrCap bounds every error factor the store and the profiler compute
// or report: a zero estimate against a nonzero actual is off by an unbounded
// factor, and the threshold comparison (and the JSON stats) must see this
// finite cap, never ±Inf or NaN.
const FeedbackErrCap = 1e9

// ErrFactor is the symmetric estimation-error factor max(obs/est, est/obs),
// ≥ 1, total over all inputs: both sides zero (a correct zero estimate) is a
// perfect 1; one side zero (an unboundedly wrong estimate) is FeedbackErrCap;
// everything else is capped there. Negative inputs are treated as zero —
// selectivities and costs are never negative, and a garbage input must not
// smuggle a negative or NaN factor into the re-optimize decision.
func ErrFactor(est, obs float64) float64 {
	if math.IsNaN(est) || math.IsNaN(obs) {
		return FeedbackErrCap
	}
	if est <= 0 && obs <= 0 {
		return 1
	}
	if est <= 0 || obs <= 0 {
		return FeedbackErrCap
	}
	f := obs / est
	if f < 1 {
		f = 1 / f
	}
	if f > FeedbackErrCap {
		return FeedbackErrCap
	}
	return f
}

// FeedbackEntry is one predicate's accumulated observation, keyed by the
// predicate's rendered fingerprint (query.Predicate.String — stable across
// sessions for the same WHERE conjunct).
type FeedbackEntry struct {
	// Fingerprint is the predicate's rendered text (e.g. "t3.ua1 = t1.a1").
	Fingerprint string `json:"fingerprint"`
	// EstSel is the estimate the optimizer used on the last observed run.
	EstSel float64 `json:"est_sel"`
	// ObsSel is the mean observed selectivity across observations.
	ObsSel float64 `json:"obs_sel"`
	// Err is ErrFactor(EstSel, ObsSel), always finite (≤ FeedbackErrCap).
	Err float64 `json:"err"`
	// Queries counts the runs that contributed to ObsSel.
	Queries int64 `json:"queries"`
}

// FuncFeedback is one registered function's accumulated observation.
type FuncFeedback struct {
	// Name is the function's catalog name.
	Name string `json:"name"`
	// ObsSel is the mean observed selectivity of the function's predicate.
	ObsSel float64 `json:"obs_sel"`
	// ObsCost is the mean measured per-invocation cost in I/O units; only
	// meaningful when HasCost (real-work functions whose evaluation is
	// metered — declared-cost stubs have no measurable cost).
	ObsCost float64 `json:"obs_cost,omitempty"`
	HasCost bool    `json:"has_cost,omitempty"`
	// Err is the max of the selectivity and cost error factors, finite.
	Err float64 `json:"err"`
	// Queries counts the runs that contributed.
	Queries int64 `json:"queries"`
}

// FeedbackStats is the JSON-safe summary of a store's state.
type FeedbackStats struct {
	// Observations counts harvested predicate/function observations.
	Observations int64 `json:"observations"`
	// PendingPreds and PendingFuncs count unapplied accumulated entries.
	PendingPreds int `json:"pending_preds"`
	PendingFuncs int `json:"pending_funcs"`
	// AppliedPreds counts fingerprints with an active selectivity override.
	AppliedPreds int `json:"applied_preds"`
	// Refreshes counts ApplyFeedback promotions (each bumped the catalog
	// version once).
	Refreshes int64 `json:"refreshes"`
	// MaxPendingErr is the largest error factor among pending entries
	// (1 when nothing is pending), always finite.
	MaxPendingErr float64 `json:"max_pending_err"`
}

// FeedbackStore accumulates observed selectivities and costs between
// ApplyFeedback promotions. All methods are safe for concurrent use.
type FeedbackStore struct {
	mu           sync.Mutex
	pending      map[string]*FeedbackEntry
	pendingFuncs map[string]*FuncFeedback
	// applied maps predicate fingerprint → selectivity override consulted by
	// query analysis ahead of histogram/default guesses.
	applied      map[string]float64
	observations int64
	refreshes    int64
}

// newFeedbackStore creates an empty store.
func newFeedbackStore() *FeedbackStore {
	return &FeedbackStore{
		pending:      make(map[string]*FeedbackEntry),
		pendingFuncs: make(map[string]*FuncFeedback),
		applied:      make(map[string]float64),
	}
}

// Observe records one run's observed selectivity for a predicate
// fingerprint. Estimates and observations outside [0, 1] are clamped; the
// mean across runs is what ApplyFeedback promotes.
func (s *FeedbackStore) Observe(fingerprint string, estSel, obsSel float64) {
	estSel, obsSel = clamp01(estSel), clamp01(obsSel)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observations++
	e := s.pending[fingerprint]
	if e == nil {
		e = &FeedbackEntry{Fingerprint: fingerprint}
		s.pending[fingerprint] = e
	}
	e.ObsSel = runningMean(e.ObsSel, e.Queries, obsSel)
	e.Queries++
	e.EstSel = estSel
	e.Err = ErrFactor(e.EstSel, e.ObsSel)
}

// ObserveFunc records one run's observed selectivity — and, for real-work
// functions with metered evaluation, measured per-invocation cost — for a
// registered function. estSel/estCost are the metadata the run planned with.
func (s *FeedbackStore) ObserveFunc(name string, estSel, obsSel float64, estCost, obsCost float64, hasCost bool) {
	estSel, obsSel = clamp01(estSel), clamp01(obsSel)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observations++
	f := s.pendingFuncs[name]
	if f == nil {
		f = &FuncFeedback{Name: name}
		s.pendingFuncs[name] = f
	}
	f.ObsSel = runningMean(f.ObsSel, f.Queries, obsSel)
	if hasCost {
		if obsCost < 0 {
			obsCost = 0
		}
		var costRuns int64
		if f.HasCost {
			costRuns = f.Queries
		}
		f.ObsCost = runningMean(f.ObsCost, costRuns, obsCost)
		f.HasCost = true
	}
	f.Queries++
	f.Err = ErrFactor(estSel, f.ObsSel)
	if f.HasCost {
		if ce := ErrFactor(estCost, f.ObsCost); ce > f.Err {
			f.Err = ce
		}
	}
}

// MaxPendingErr returns the largest error factor among pending observations
// (1 when nothing is pending). The result is always finite — the threshold
// comparison in the facade never sees ±Inf or NaN.
func (s *FeedbackStore) MaxPendingErr() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	worst := 1.0
	for _, e := range s.pending {
		if e.Err > worst {
			worst = e.Err
		}
	}
	for _, f := range s.pendingFuncs {
		if f.Err > worst {
			worst = f.Err
		}
	}
	return worst
}

// AppliedSel returns the active selectivity override for a predicate
// fingerprint, if one has been promoted.
func (s *FeedbackStore) AppliedSel(fingerprint string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sel, ok := s.applied[fingerprint]
	return sel, ok
}

// Stats snapshots the store's counters.
func (s *FeedbackStore) Stats() FeedbackStats {
	s.mu.Lock()
	st := FeedbackStats{
		Observations: s.observations,
		PendingPreds: len(s.pending),
		PendingFuncs: len(s.pendingFuncs),
		AppliedPreds: len(s.applied),
		Refreshes:    s.refreshes,
	}
	s.mu.Unlock()
	st.MaxPendingErr = s.MaxPendingErr()
	return st
}

// takePending drains the pending maps for promotion (under the store lock),
// recording the refresh.
func (s *FeedbackStore) takePending() (map[string]*FeedbackEntry, map[string]*FuncFeedback) {
	s.mu.Lock()
	defer s.mu.Unlock()
	preds, funcs := s.pending, s.pendingFuncs
	s.pending = make(map[string]*FeedbackEntry)
	s.pendingFuncs = make(map[string]*FuncFeedback)
	for fp, e := range preds {
		s.applied[fp] = e.ObsSel
	}
	if len(preds)+len(funcs) > 0 {
		s.refreshes++
	}
	return preds, funcs
}

// clamp01 clamps a selectivity into [0, 1]; NaN clamps to 0.
func clamp01(v float64) float64 {
	if !(v > 0) { // catches NaN too
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// runningMean folds one more sample into a mean over n prior samples.
func runningMean(mean float64, n int64, sample float64) float64 {
	return (mean*float64(n) + sample) / float64(n+1)
}

// Feedback returns the catalog's feedback store.
func (c *Catalog) Feedback() *FeedbackStore { return c.fb }

// ApplyFeedback promotes every pending observation: predicate selectivity
// overrides become active for query analysis, and each observed registered
// function is re-registered with refreshed metadata — observed selectivity
// for every function, measured per-invocation cost for real-work functions
// only (declared-cost stubs charge invocations × declared cost by
// definition; overwriting their cost with the 0 a costless evaluation
// "measures" would corrupt the charged-cost accounting). The catalog version
// bumps exactly once when anything was promoted, invalidating version-keyed
// cached plans. It returns the number of promoted entries.
func (c *Catalog) ApplyFeedback() int {
	if c.fb == nil {
		return 0
	}
	preds, funcs := c.fb.takePending()
	applied := len(preds)
	c.mu.Lock()
	for name, obs := range funcs {
		old, ok := c.funcs[name]
		if !ok {
			continue
		}
		// Build the refreshed definition field by field: FuncDef carries an
		// atomic invocation counter and must never be copied by value.
		nf := &expr.FuncDef{
			Name:        old.Name,
			Arity:       old.Arity,
			Cost:        old.Cost,
			Selectivity: obs.ObsSel,
			Cacheable:   old.Cacheable,
			RealWork:    old.RealWork,
			Eval:        old.Eval,
			EvalErr:     old.EvalErr,
			EvalIO:      old.EvalIO,
		}
		if old.RealWork && obs.HasCost {
			nf.Cost = obs.ObsCost
		}
		c.funcs[name] = nf
		applied++
	}
	c.mu.Unlock()
	if applied > 0 {
		c.version.Add(1)
	}
	return applied
}
