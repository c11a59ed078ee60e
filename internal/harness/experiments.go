package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"predplace"
	"predplace/internal/optimizer"
)

// Table1 reproduces Table 1: the algorithm summary with implementation
// effort. The paper reported C lines in Montage's optimizer; we report
// measured Go lines of this repository's optimizer sources (same spirit,
// honest units).
func (h *Harness) Table1() (*Report, error) {
	type row struct {
		algo  string
		works string
		files []string
		note  string
	}
	rows := []row{
		{"PushDown+", "queries without expensive predicates and queries without joins",
			[]string{"optimizer.go", "systemr.go"},
			"OK for single-table queries, and thus some ODBMSs."},
		{"PullUp", "queries with either free or very expensive selections",
			[]string{"optimizer.go", "systemr.go", "join.go"},
			"OK for MMDBMSs with standard primary join predicates."},
		{"PullRank", "queries with at most one join and standard primary join predicates",
			[]string{"optimizer.go", "systemr.go", "join.go"},
			"Also used as a preprocessor for Predicate Migration."},
		{"Predicate Migration", "queries with standard primary join predicates",
			[]string{"optimizer.go", "systemr.go", "join.go", "flat.go", "migrate.go"},
			"Widely effective. Can cause enlargement of plan space."},
		{"LDL", "queries where the optimal plan has no costly predicates over an inner",
			[]string{"ldl.go", "enumerate.go"},
			"Forced pullup from join inners (left-deep trees only)."},
		{"Exhaustive", "all queries, including those with expensive primary joins",
			[]string{"exhaustive.go", "enumerate.go"},
			"Prohibitive computational complexity."},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %9s  %-62s %s\n", "Algorithm", "Go lines", "Works for...", "Comments")
	metrics := map[string]float64{}
	for _, r := range rows {
		lines := optimizerLines(r.files)
		metrics["lines_"+r.algo] = float64(lines)
		count := "n/a"
		if lines > 0 {
			count = fmt.Sprintf("%d", lines)
		}
		fmt.Fprintf(&b, "%-20s %9s  %-62s %s\n", r.algo, count, r.works, r.note)
	}
	rep := &Report{
		ID:      "table1",
		Title:   "Summary of algorithms (paper Table 1)",
		Text:    b.String(),
		Metrics: metrics,
	}
	mig, pd := metrics["lines_Predicate Migration"], metrics["lines_PushDown+"]
	rep.Shape = append(rep.Shape, check(
		"Predicate Migration needs substantially more implementation than PushDown+ (paper: 3000 vs 900 C lines)",
		mig == 0 || pd == 0 || mig > pd*1.5, "migration=%0.f pushdown=%0.f", mig, pd))
	return rep, nil
}

// optimizerLines counts source lines of the named optimizer files; 0 when
// the sources are not present (e.g. a stripped binary install).
func optimizerLines(files []string) int {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return 0
	}
	dir := filepath.Join(filepath.Dir(filepath.Dir(self)), "optimizer")
	total := 0
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return 0
		}
		total += strings.Count(string(data), "\n")
	}
	return total
}

// Table2 reproduces Table 2: physical characteristics of the benchmark
// relations (cardinality scaled by h.Scale; the paper's database was ~110 MB
// at scale 1.0 with 100-byte tuples).
func (h *Harness) Table2() (*Report, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "scale factor %.3f (1.0 = the paper's database)\n", h.Scale)
	fmt.Fprintf(&b, "%-8s %10s %8s %10s %9s\n", "relation", "tuples", "pages", "size(MB)", "indexes")
	var totalMB float64
	metrics := map[string]float64{}
	for _, tab := range h.DB.Catalog().Tables() {
		mb := float64(tab.Pages()) * 8192 / 1e6
		// Index space estimate: ~16 bytes per entry per index.
		idxMB := float64(len(tab.Indexes)) * float64(tab.Card) * 16 / 1e6
		totalMB += mb + idxMB
		fmt.Fprintf(&b, "%-8s %10d %8d %10.2f %9d\n", tab.Name, tab.Card, tab.Pages(), mb, len(tab.Indexes))
		metrics["tuples_"+tab.Name] = float64(tab.Card)
	}
	fmt.Fprintf(&b, "total size incl. index estimate: %.1f MB (paper: ~110 MB at scale 1.0)\n", totalMB)
	metrics["total_mb"] = totalMB
	rep := &Report{ID: "table2", Title: "Benchmark relations (paper Table 2)",
		Text: b.String(), Metrics: metrics}
	rep.Shape = append(rep.Shape,
		check("tuples are 100 bytes wide", tupleWidthIs100(h), "—"),
		check("|tN| = N × 10,000 × scale", cardsScaleLinearly(h), "—"),
	)
	return rep, nil
}

func tupleWidthIs100(h *Harness) bool {
	for _, tab := range h.DB.Catalog().Tables() {
		if tab.TupleBytes != 100 {
			return false
		}
	}
	return true
}

func cardsScaleLinearly(h *Harness) bool {
	for n := 1; n <= 10; n++ {
		tab, err := h.DB.Catalog().Table(fmt.Sprintf("t%d", n))
		if err != nil {
			return false
		}
		want := int64(float64(n) * 10000 * h.Scale)
		if want < 10 {
			want = 10
		}
		if tab.Card != want {
			return false
		}
	}
	return true
}

// Fig1PlanTrees reproduces Figures 1 and 2: the optimal plan for the §3.1
// example places p and q directly above the scans (a shape no left-deep
// tree over the LDL rewrite can express); LDL's left-deep plan pulls the
// inner relation's selection above the join.
func (h *Harness) Fig1PlanTrees() (*Report, error) {
	h.DB.SetCaching(true)
	defer h.DB.SetCaching(false)
	opt, err := h.DB.Explain(Fig1Query, predplace.Migration)
	if err != nil {
		return nil, err
	}
	ldl, err := h.DB.Explain(Fig1Query, predplace.LDL)
	if err != nil {
		return nil, err
	}
	text := "Predicate Migration plan (Figure 1 — selections above their scans):\n" + opt +
		"\nLDL plan (Figure 2 — inner selection forced above the join):\n" + ldl
	rep := &Report{ID: "fig1", Title: "Optimal vs LDL plan trees (paper Figures 1–2)", Text: text}
	// The migration plan keeps each costly1 below the join; the LDL plan
	// keeps at most one (the base table's) below.
	rep.Shape = append(rep.Shape,
		check("Migration keeps both cheap-ish selections below the join",
			filtersBelowJoin(opt) == 2, "below=%d", filtersBelowJoin(opt)),
		check("LDL keeps at most one selection below the join (inner pullup forced)",
			filtersBelowJoin(ldl) <= 1, "below=%d", filtersBelowJoin(ldl)),
	)
	return rep, nil
}

// filtersBelowJoin counts Filter* lines rendered deeper than the root join.
func filtersBelowJoin(rendered string) int {
	lines := strings.Split(rendered, "\n")
	joinIndent := -1
	count := 0
	for _, l := range lines {
		trimmed := strings.TrimLeft(l, " ")
		indent := len(l) - len(trimmed)
		if isJoinLine(trimmed) && joinIndent == -1 {
			joinIndent = indent
		}
		if strings.HasPrefix(trimmed, "Filter*") && joinIndent >= 0 && indent > joinIndent {
			count++
		}
	}
	return count
}

func isJoinLine(trimmed string) bool {
	for _, m := range []string{"NestLoop", "IndexNestLoop", "MergeJoin", "HashJoin"} {
		if strings.HasPrefix(trimmed, m+" on") {
			return true
		}
	}
	return false
}

// figure runs one of the paper's bar-chart comparisons.
func (h *Harness) figure(id, title, sql string, caching bool, budgetFactor float64,
	shapes func(c *comparison) []ShapeCheck, extra ...predplace.Algorithm) (*Report, error) {
	algos := append(append([]predplace.Algorithm(nil), fourAlgos...), extra...)
	c, err := h.compare(sql, caching, budgetFactor, algos...)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    id,
		Title: title,
		Text:  "query:\n" + sql + "\n\n" + c.table(),
		Metrics: map[string]float64{
			"best": c.bestCharged(),
		},
	}
	for i, a := range algos {
		rep.Metrics[a.String()] = c.results[i].Stats.Charged()
		if c.results[i].DNF {
			rep.Metrics[a.String()+"_dnf"] = 1
		}
	}
	rep.Shape = shapes(c)
	return rep, nil
}

// Fig3Query1 reproduces Figure 3: PushDown produces a very poor plan for
// Query 1 while every pullup-capable algorithm agrees on the good plan.
func (h *Harness) Fig3Query1() (*Report, error) {
	return h.figure("fig3", "Query 1 relative performance (paper Figure 3)", Query1, false, 200,
		func(c *comparison) []ShapeCheck {
			best := c.bestCharged()
			pd := c.charged(predplace.PushDown)
			mg := c.charged(predplace.Migration)
			return []ShapeCheck{
				check("PushDown is much worse than the rest (paper: ~3x)",
					pd > 2*best, "pushdown=%.0f best=%.0f (%.2fx)", pd, best, pd/best),
				check("Migration matches the best plan",
					mg <= best*1.05, "migration=%.0f best=%.0f", mg, best),
				check("PullUp and PullRank agree with Migration here",
					c.charged(predplace.PullUp) <= mg*1.1 && c.charged(predplace.PullRank) <= mg*1.1, "—"),
			}
		}, predplace.Exhaustive)
}

// Fig4Query2 reproduces Figure 4: with join selectivity ≈1 over t10, PullUp's
// over-eager hoist costs a little, and "this error is nearly insignificant".
func (h *Harness) Fig4Query2() (*Report, error) {
	return h.figure("fig4", "Query 2 relative performance (paper Figure 4)", Query2, false, 200,
		func(c *comparison) []ShapeCheck {
			best := c.bestCharged()
			pu := c.charged(predplace.PullUp)
			return []ShapeCheck{
				check("PullUp errs (hoists a no-benefit selection)",
					pu >= best, "pullup=%.0f best=%.0f", pu, best),
				check("PullUp's error is nearly insignificant (within ~25%)",
					pu <= best*1.25, "pullup=%.2fx of best", pu/best),
				check("Migration and PushDown agree on keeping the selection low",
					c.charged(predplace.Migration) <= best*1.05 && c.charged(predplace.PushDown) <= best*1.05, "—"),
			}
		}, predplace.Exhaustive)
}

// Fig5Query3 reproduces Figure 5: over-eager pullup across a duplicating
// join multiplies invocations (caching off).
func (h *Harness) Fig5Query3() (*Report, error) {
	return h.figure("fig5", "Query 3 relative performance (paper Figure 5)", Query3, false, 200,
		func(c *comparison) []ShapeCheck {
			best := c.bestCharged()
			pu := c.charged(predplace.PullUp)
			return []ShapeCheck{
				check("over-eager PullUp is badly beaten (paper: 'significant performance problems')",
					pu > 2*best, "pullup=%.0f best=%.0f (%.2fx)", pu, best, pu/best),
				check("Migration keeps the selection below the duplicating join",
					c.charged(predplace.Migration) <= best*1.05, "migration=%.0f", c.charged(predplace.Migration)),
			}
		})
}

// Fig6PlanTrees reproduces Figures 6 and 7: in Query 4's natural join order
// the selection's rank lies between the two joins' ranks, so the single-join
// PullRank test leaves it stuck at the bottom (the PushDown plan) — only the
// grouped pair {J1,J2} justifies pulling it to the top, which Predicate
// Migration does. PullRank's own output (the Figure 7 "flight" to another
// join order) is also shown.
func (h *Harness) Fig6PlanTrees() (*Report, error) {
	mig, err := h.DB.Explain(Query4, predplace.Migration)
	if err != nil {
		return nil, err
	}
	pd, err := h.DB.Explain(Query4, predplace.PushDown)
	if err != nil {
		return nil, err
	}
	pr, err := h.DB.Explain(Query4, predplace.PullRank)
	if err != nil {
		return nil, err
	}
	text := "Migration plan (Figure 6 — selection pulled above the grouped join pair):\n" + mig +
		"\nStuck plan (what the per-join rank test alone achieves in this order):\n" + pd +
		"\nPullRank plan (Figure 7 — flees to a different join order):\n" + pr
	rep := &Report{ID: "fig6", Title: "Query 4 plan trees (paper Figures 6–7)", Text: text}
	rep.Shape = append(rep.Shape,
		check("Migration pulls the selection above both joins (group pullup)",
			filtersBelowJoin(mig) == 0 && strings.Count(mig, " on ") >= 2,
			"below=%d", filtersBelowJoin(mig)),
		check("the per-join test alone leaves the selection at the bottom",
			filtersBelowJoin(pd) == 1, "below=%d", filtersBelowJoin(pd)),
	)
	return rep, nil
}

// Fig8Query4 reproduces Figure 8: PullRank cannot consider multi-join
// pullups and loses to Predicate Migration on Query 4.
func (h *Harness) Fig8Query4() (*Report, error) {
	return h.figure("fig8", "Query 4 relative performance (paper Figure 8)", Query4, false, 200,
		func(c *comparison) []ShapeCheck {
			mg := c.charged(predplace.Migration)
			pr := c.charged(predplace.PullRank)
			pd := c.charged(predplace.PushDown)
			best := c.bestCharged()
			// PullRank cannot pull the selection over the grouped pair in
			// the natural join order, so it either ships the stuck plan
			// (PushDown-like, ~3x) or flees to another join order
			// (Figure 7). Montage's measured costs made that escape order
			// poor; our deliberately symmetric linear join costs make it
			// tie, so the structural failure shows as PushDown's stuck-plan
			// penalty plus PullRank's changed plan, with Migration never
			// worse (see EXPERIMENTS.md).
			return []ShapeCheck{
				check("the stuck plan (PushDown) is much worse than Migration",
					pd > mg*2, "pushdown=%.0f migration=%.0f", pd, mg),
				check("Migration never loses to PullRank",
					mg <= pr*1.0001, "pullrank=%.0f migration=%.0f", pr, mg),
				check("Migration is the best of the four (ties allowed)",
					mg <= best*1.05, "migration=%.0f best=%.0f", mg, best),
			}
		}, predplace.Exhaustive)
}

// Fig9Query5 reproduces Figure 9: with an expensive primary join predicate,
// PullUp's plan explodes (the paper's run never completed; ours aborts
// against the charged-cost budget), while Migration handles it.
func (h *Harness) Fig9Query5() (*Report, error) {
	return h.figure("fig9", "Query 5 relative performance (paper Figure 9)", Query5, false, 6,
		func(c *comparison) []ShapeCheck {
			mg := c.charged(predplace.Migration)
			best := c.bestCharged()
			return []ShapeCheck{
				check("PullUp does not finish (paper: 'used up all available swap space')",
					c.dnf(predplace.PullUp) || c.charged(predplace.PullUp) > 10*best,
					"dnf=%v", c.dnf(predplace.PullUp)),
				check("Migration is at or near the best completed plan",
					mg <= best*1.05, "migration=%.0f best=%.0f", mg, best),
			}
		})
}

// Fig10Spectrum reproduces Figure 10: the algorithms form a spectrum of
// eagerness to pull up selections. We measure eagerness as the fraction of
// expensive selections placed above at least one join across the five
// benchmark queries.
func (h *Harness) Fig10Spectrum() (*Report, error) {
	algos := []predplace.Algorithm{
		predplace.PushDown, predplace.PullRank, predplace.Migration,
		predplace.LDL, predplace.PullUp,
	}
	queries := []string{Query1, Query2, Query3, Query4, Fig1Query}
	eager := map[predplace.Algorithm]float64{}
	for _, a := range algos {
		hoisted, total := 0, 0
		for _, q := range queries {
			rendered, err := h.DB.Explain(q, a)
			if err != nil {
				return nil, err
			}
			below := filtersBelowJoin(rendered)
			all := strings.Count(rendered, "Filter*")
			total += all
			hoisted += all - below
		}
		if total > 0 {
			eager[a] = float64(hoisted) / float64(total)
		}
	}
	var b strings.Builder
	b.WriteString("pullup eagerness (fraction of expensive selections above a join)\n")
	for _, a := range algos {
		fmt.Fprintf(&b, "  %-18s %5.2f\n", a.String(), eager[a])
	}
	b.WriteString("paper Figure 10 spectrum: PushDown < PullRank ~ Migration < LDL < PullUp\n")
	rep := &Report{ID: "fig10", Title: "Spectrum of pullup eagerness (paper Figure 10)", Text: b.String()}
	rep.Shape = append(rep.Shape,
		check("PushDown is least eager (0)", eager[predplace.PushDown] == 0, "%.2f", eager[predplace.PushDown]),
		check("PullUp is most eager (1)", eager[predplace.PullUp] == 1, "%.2f", eager[predplace.PullUp]),
		check("PullRank and Migration sit between",
			eager[predplace.PullRank] >= eager[predplace.PushDown] &&
				eager[predplace.Migration] >= eager[predplace.PullRank]-0.21 &&
				eager[predplace.PullUp] >= eager[predplace.Migration], "—"),
		check("LDL is at least as eager as Migration",
			eager[predplace.LDL] >= eager[predplace.Migration]-0.01, "ldl=%.2f mig=%.2f",
			eager[predplace.LDL], eager[predplace.Migration]),
	)
	return rep, nil
}

// PlanTime5Way reproduces the §4.4 claim: even in the worst case where
// unpruneable subplans defeat pruning, a 5-way join with expensive
// predicates plans quickly (the paper: under 8 seconds on a SparcStation 10).
// Robust — twelve such enumerations plus the error-box scoring — is reported
// beside Migration; its checks are on counts and scores, not on time.
func (h *Harness) PlanTime5Way() (*Report, error) {
	h.DB.SetCaching(false)
	start := time.Now()
	res, err := h.DB.Query("EXPLAIN "+PlanTimeQuery, predplace.Migration)
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	start = time.Now()
	rob, err := h.DB.Query("EXPLAIN "+PlanTimeQuery, predplace.Robust)
	if err != nil {
		return nil, err
	}
	robElapsed := time.Since(start)
	// Migration's plan, scored over the same error box Robust scored its own.
	migWorst, err := h.worstCase(PlanTimeQuery, optimizer.Options{Algorithm: optimizer.Migration}, rob.Info.RobustE)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "5-way join with 4 expensive predicates\nplanning time: %v\nplans retained: %d (unpruneable extras: %d, migration passes: %d)\n",
		elapsed, res.Info.PlansRetained, res.Info.UnpruneableRetained, res.Info.MigrationPasses)
	fmt.Fprintf(&b, "Robust planning time: %v\ncandidates scored: %d; worst-corner cost %.0f (Migration's plan at the same corners: %.0f)\n",
		robElapsed, rob.Info.RobustCandidates, rob.Info.RobustWorst, migWorst)
	rep := &Report{
		ID:    "plantime",
		Title: "Optimization time for a 5-way join with expensive predicates (paper §4.4)",
		Text:  b.String(),
		Metrics: map[string]float64{
			"seconds":           elapsed.Seconds(),
			"plans_retained":    float64(res.Info.PlansRetained),
			"unpruneable":       float64(res.Info.UnpruneableRetained),
			"robust_seconds":    robElapsed.Seconds(),
			"robust_candidates": float64(rob.Info.RobustCandidates),
			"robust_worst":      rob.Info.RobustWorst,
		},
	}
	rep.Shape = append(rep.Shape,
		check("plans in under 8 seconds (paper's bound on 1993 hardware)",
			elapsed < 8*time.Second, "%v", elapsed),
		check("unpruneable retention enlarges the plan space",
			res.Info.PlansRetained > 0, "%d plans", res.Info.PlansRetained),
		check("Robust scores between 1 and 12 distinct candidates (3 scalings × 4 spectrum algorithms)",
			rob.Info.RobustCandidates >= 1 && rob.Info.RobustCandidates <= 12, "%d candidates", rob.Info.RobustCandidates),
		check("Robust's plan is no worse at its worst corner than Migration's plan at the same corners",
			rob.Info.RobustWorst <= migWorst*(1+1e-9), "robust=%.0f migration=%.0f", rob.Info.RobustWorst, migWorst),
	)
	return rep, nil
}

// CachingAblation reproduces §5.1's claim: predicate caching rescues
// over-eager pullup on Query 3 by bounding invocations at the number of
// distinct bindings (join selectivities on values are capped at 1).
func (h *Harness) CachingAblation() (*Report, error) {
	off, err := h.compare(Query3, false, 0, predplace.PullUp, predplace.Migration)
	if err != nil {
		return nil, err
	}
	on, err := h.compare(Query3, true, 0, predplace.PullUp, predplace.Migration)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.WriteString("Query 3, caching OFF:\n" + off.table())
	b.WriteString("\nQuery 3, caching ON:\n" + on.table())
	puOff := off.charged(predplace.PullUp)
	puOn := on.charged(predplace.PullUp)
	rep := &Report{
		ID:    "caching",
		Title: "Predicate caching ablation on Query 3 (paper §5.1)",
		Text:  b.String(),
		Metrics: map[string]float64{
			"pullup_off": puOff, "pullup_on": puOn,
		},
	}
	rep.Shape = append(rep.Shape,
		check("caching sharply reduces PullUp's penalty on the duplicating join",
			puOn < puOff/2, "off=%.0f on=%.0f", puOff, puOn),
		check("with caching, PullUp is within ~40% of Migration (selectivity-on-values bound)",
			puOn <= on.charged(predplace.Migration)*1.4, "pullup=%.0f migration=%.0f",
			puOn, on.charged(predplace.Migration)),
	)
	return rep, nil
}
