package harness

// The extension experiments whose deliverable is a deterministic
// charged-cost table: the top-k k-sweep, transfer × placement, and the
// estimate-error e-sweep (EXPERIMENTS.md has one section each). They run
// serially at the default batch width with caching off. That no executor
// knob — width, parallelism, profiling — moves a result row or a charged
// cost is the knob lattice's claim (lattice_test.go in the root package),
// not theirs, and wall time is bench/'s.

import (
	"fmt"
	"slices"
	"strings"

	"predplace"
	"predplace/internal/cost"
	"predplace/internal/expr"
)

// topkQueries are the ORDER BY shapes the sweep appends LIMIT k to. The
// flagship orders by the unique indexed key a1: under a LIMIT the plan is an
// early-terminating Limit over an index-order scan, so costly100 runs only
// until k rows survive. The heap query orders by the unique unindexed ua1,
// so the whole input is consumed through a k-bounded heap.
var topkQueries = []struct{ name, sql string }{
	{"ordered", "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.a1"},
	{"heap", "SELECT * FROM t1 WHERE costly100(t1.u20) ORDER BY t1.ua1"},
}

// onOff runs sql under algo with one boolean knob off and then on.
func (h *Harness) onOff(set func(bool), sql string, algo predplace.Algorithm) (off, on *predplace.Result, err error) {
	defer set(false)
	set(false)
	if off, err = h.DB.Query(sql, algo); err != nil {
		return nil, nil, fmt.Errorf("knob off: %w", err)
	}
	set(true)
	if on, err = h.DB.Query(sql, algo); err != nil {
		return nil, nil, fmt.Errorf("knob on: %w", err)
	}
	return off, on, nil
}

// TopKSweep runs the two shapes without a LIMIT (the plan root sorts the
// whole result) and with LIMIT k for k ∈ {1, 10, 100, 1000}.
func (h *Harness) TopKSweep() (*Report, error) {
	h.DB.SetCaching(false)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %5s %11s %11s %7s  %s\n", "query", "k", "no LIMIT", "LIMIT k", "ratio", "plan root under LIMIT k")
	metrics := map[string]float64{}
	sameRows, neverMore, heapFlat := true, true, true
	for _, q := range topkQueries {
		all, err := h.DB.Query(q.sql, predplace.Migration)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
		allRows, allC := CanonRows(all, true), all.Stats.Charged()
		for _, k := range []int{1, 10, 100, 1000} {
			lim, err := h.DB.Query(fmt.Sprintf("%s LIMIT %d", q.sql, k), predplace.Migration)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", q.name, k, err)
			}
			limC := lim.Stats.Charged()
			root, _, _ := strings.Cut(lim.Plan, "  (card=")
			fmt.Fprintf(&b, "%-8s %5d %11.0f %11.0f %6.1fx  %s\n", q.name, k, allC, limC, allC/limC, root)
			metrics[fmt.Sprintf("%s_k%d_ratio", q.name, k)] = allC / limC
			sameRows = sameRows && slices.Equal(allRows[:min(k, len(allRows))], CanonRows(lim, true))
			neverMore = neverMore && limC <= allC+1e-6
			heapFlat = heapFlat && (q.name != "heap" || cost.ApproxEq(limC, allC))
		}
	}
	flagship := metrics["ordered_k10_ratio"]
	return &Report{
		ID: "topk", Title: "ORDER BY … LIMIT k: charged cost over a LIMIT sweep (extension)",
		Text: b.String(), Metrics: metrics,
		Shape: []ShapeCheck{
			check("LIMIT k delivers exactly the first k rows of the statement without it, in order, at every k", sameRows, "—"),
			check("LIMIT k never charges more than the statement without it", neverMore, "—"),
			check("the ordered-index query at k=10 is at least 2x cheaper (the LIMIT reaches the scan)",
				flagship >= 2, "%.1fx", flagship),
			check("the heap query charges exactly the no-LIMIT cost (no index on ua1: it cannot stop early)", heapFlat, "—"),
		},
	}, nil
}

// TransferPlacement runs the join queries (3–5) under PushDown and Migration
// with predicate transfer off and on. The on-cost includes every filter
// build, probe and prepass page read — transfer is never free.
func (h *Harness) TransferPlacement() (*Report, error) {
	h.DB.SetCaching(false)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-18s %12s %12s %8s %10s\n", "query", "algorithm", "charged(off)", "charged(on)", "pruned", "fp-actual")
	metrics := map[string]float64{}
	gain := func(q int, algo predplace.Algorithm) string { return fmt.Sprintf("query%d_%v_gain", q, algo) }
	algos := []predplace.Algorithm{predplace.PushDown, predplace.Migration}
	sameRows, overheadReported, fpSmall := true, true, true
	for i, sql := range []string{Query3, Query4, Query5} {
		for _, algo := range algos {
			// Profiling is observational; it is on so the transfer stats
			// carry the filters' measured false-positive rate.
			h.DB.SetProfile(true)
			off, on, err := h.onOff(h.DB.SetTransfer, sql, algo)
			h.DB.SetProfile(false)
			if err != nil {
				return nil, fmt.Errorf("query%d %v: %w", i+3, algo, err)
			}
			ts := on.Stats.Transfer
			if ts == nil {
				return nil, fmt.Errorf("query%d %v: transfer on but no transfer stats", i+3, algo)
			}
			offC, onC := off.Stats.Charged(), on.Stats.Charged()
			fmt.Fprintf(&b, "query%-3d %-18v %12.0f %12.0f %8d %10.4f\n", i+3, algo, offC, onC, ts.Pruned, ts.FPActual)
			metrics[gain(i+3, algo)] = offC / onC
			sameRows = sameRows && slices.Equal(CanonRows(off, false), CanonRows(on, false))
			overheadReported = overheadReported && ts.PrepassCharged+ts.ProbeCharge > 0
			fpSmall = fpSmall && ts.FPActual <= 0.01
		}
	}
	q4pd, q4mg := metrics[gain(4, predplace.PushDown)], metrics[gain(4, predplace.Migration)]
	flat := true
	for _, q := range []int{3, 5} {
		for _, algo := range algos {
			g := metrics[gain(q, algo)]
			flat = flat && g > 0.999 && g < 1.001
		}
	}
	return &Report{
		ID: "transfer", Title: "Predicate transfer × placement: charged cost (extension)",
		Text: b.String(), Metrics: metrics,
		Shape: []ShapeCheck{
			check("transfer never changes the result multiset", sameRows, "—"),
			check("transfer is never free: every transfer-on run reports prepass and probe charges", overheadReported, "—"),
			check("Query 4 under PushDown: pre-filtering substitutes for placement (at least 2x cheaper)",
				q4pd >= 2, "%.2fx", q4pd),
			check("Query 4 under Migration, which already placed well, moves by under 1%",
				q4mg > 0.99 && q4mg < 1.01, "%.4fx", q4mg),
			check("Queries 3 and 5 charge within 0.1% either way (the filters barely reduce their dominant join)", flat, "—"),
			check("measured Bloom false-positive rate stays at or below 1% (12 bits per key)", fpSmall, "—"),
		},
	}, nil
}

// EstimateErrorQuery hinges on fbsel(t3.ua1)'s declared selectivity s: the
// a10 equijoin expands t3's survivors ×10/3, so the expensive fbjoin
// evaluates over est 800000·s·scale pairs when the filtered t3 joins first
// and a flat 80000·scale pairs when t1 ⋈ t2 runs first. The orders cross at
// s = 0.1: with truth at 0.3 an underestimate of 4× or more flips the plan
// onto the order whose actual fbjoin input — and per-pair invocation charge
// — is about three times the truth-optimal one's. fbsel filters on ua1
// (unique values) so the surviving rows are an uncorrelated sample and the
// a10 expansion survives the filter.
const EstimateErrorQuery = "SELECT * FROM t1, t2, t3 WHERE t3.a10 = t1.a10 AND fbsel(t3.ua1) AND fbjoin(t1.u20, t2.u20)"

// fbTrueSel is fbsel's actual selectivity, fixed by its seeded stub; only
// the declaration the optimizer sees is perturbed.
const fbTrueSel = 0.3

// EstimateError declares fbsel's selectivity wrong by a factor e ∈ {1, 2, 4,
// 8} in both directions and runs PushDown, Migration and Robust (interval
// half-width 4) under each declaration with feedback off; then it closes the
// loop: the 4× underestimate run twice under Migration with feedback on. The
// stub's evaluation never changes, so every run returns the same multiset;
// only the join order — and the charged cost — may move. It builds its own
// database: promoted observations stay in a catalog.
func (h *Harness) EstimateError() (*Report, error) {
	db, err := predplace.Open(predplace.Config{Scale: h.Scale, Tables: []int{1, 2, 3}, RobustE: 4})
	if err != nil {
		return nil, err
	}
	if err := db.RegisterFunc("fbjoin", 2, 5, 0.3, expr.BoolStub(0.3, 424242321)); err != nil {
		return nil, err
	}
	// declare re-registers the stub from the same seed under a new declared
	// selectivity; the catalog-version bump re-plans the cached statement.
	declare := func(sel float64) error {
		return db.RegisterFunc("fbsel", 1, 0, min(sel, 1), expr.BoolStub(fbTrueSel, 20260807))
	}
	var baseline []string
	sameRows := true
	run := func(algo predplace.Algorithm) (*predplace.Result, error) {
		res, err := db.Query(EstimateErrorQuery, algo)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", algo, err)
		}
		rows := CanonRows(res, false)
		if baseline == nil {
			baseline = rows
		}
		sameRows = sameRows && slices.Equal(rows, baseline)
		return res, nil
	}

	algos := []predplace.Algorithm{predplace.PushDown, predplace.Migration, predplace.Robust}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-18s %12s %12s %12s\n", "e", "algorithm", "under-cost", "over-cost", "worst-cost")
	metrics := map[string]float64{}
	var shapes []ShapeCheck
	for _, e := range []float64{1, 2, 4, 8} {
		worst := map[predplace.Algorithm]float64{}
		for _, algo := range algos {
			var dir [2]float64
			for i, declared := range []float64{fbTrueSel / e, fbTrueSel * e} {
				if err := declare(declared); err != nil {
					return nil, err
				}
				res, err := run(algo)
				if err != nil {
					return nil, fmt.Errorf("e=%g: %w", e, err)
				}
				dir[i] = res.Stats.Charged()
			}
			worst[algo] = max(dir[0], dir[1])
			metrics[fmt.Sprintf("e%g_%v", e, algo)] = worst[algo]
			fmt.Fprintf(&b, "%-4g %-18v %12.0f %12.0f %12.0f\n", e, algo, dir[0], dir[1], worst[algo])
		}
		pd, mg, rb := worst[predplace.PushDown], worst[predplace.Migration], worst[predplace.Robust]
		if e == 1 {
			shapes = append(shapes, check("at e=1 the three algorithms charge the same",
				cost.ApproxEq(pd, mg) && cost.ApproxEq(pd, rb), "pushdown=%.0f migration=%.0f robust=%.0f", pd, mg, rb))
		}
		if e >= 4 {
			shapes = append(shapes, check(fmt.Sprintf("at e=%g Robust's worst case beats both point-estimate algorithms", e),
				rb < pd && rb < mg && !cost.ApproxEq(rb, pd) && !cost.ApproxEq(rb, mg),
				"pushdown=%.0f migration=%.0f robust=%.0f", pd, mg, rb))
		}
	}

	if err := declare(fbTrueSel / 4); err != nil {
		return nil, err
	}
	db.SetFeedback(true)
	firstRes, err := run(predplace.Migration)
	if err != nil {
		return nil, fmt.Errorf("feedback loop, first run: %w", err)
	}
	secondRes, err := run(predplace.Migration)
	if err != nil {
		return nil, fmt.Errorf("feedback loop, second run: %w", err)
	}
	first, second := firstRes.Stats.Charged(), secondRes.Stats.Charged()
	refreshes := db.FeedbackStats().Refreshes
	fmt.Fprintf(&b, "loop: declared=%.4g feedback on, Migration twice: first=%.0f second=%.0f plan-changed=%v refreshes=%d\n",
		fbTrueSel/4, first, second, firstRes.Plan != secondRes.Plan, refreshes)
	shapes = append(shapes,
		check("one harvested run repairs the 4x underestimate: a refresh, then a rerun that charges no more",
			refreshes >= 1 && (second < first || cost.ApproxEq(second, first)), "first=%.0f second=%.0f refreshes=%d", first, second, refreshes),
		check("every declaration, algorithm and feedback run returns the same result multiset", sameRows, "—"))
	return &Report{
		ID: "esterror", Title: "Estimate error: charged cost under misdeclared selectivity, and the feedback loop (extension)",
		Text: b.String(), Metrics: metrics, Shape: shapes,
	}, nil
}
