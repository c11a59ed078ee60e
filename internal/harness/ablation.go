package harness

import (
	"fmt"
	"strings"

	"predplace"
	"predplace/internal/optimizer"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/sqlparse"
)

// Ablations exercises the design choices DESIGN.md calls out, one at a time:
//
//  1. unpruneable-subplan retention (§4.4) — Migration with retention
//     disabled can miss group pullups whose join order ordinary pruning
//     discarded;
//  2. the value-based (caching-aware) rank model (§5.1) — without it, the
//     planner hoists cached selections whose repeat invocations are actually
//     free, losing the Figure 1 plan shape;
//  3. bounded predicate caches — shrinking the per-predicate tables revives
//     the duplicate invocations caching exists to absorb.
func (h *Harness) Ablations() (*Report, error) {
	var b strings.Builder
	var shapes []ShapeCheck

	// --- 1. unpruneable retention ---
	full, fullInfo, err := h.planWithOptions(Query4, optimizer.Options{Algorithm: optimizer.Migration})
	if err != nil {
		return nil, err
	}
	ablated, ablInfo, err := h.planWithOptions(Query4, optimizer.Options{
		Algorithm: optimizer.Migration, DisableUnpruneable: true,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "1. unpruneable retention (Query 4):\n")
	fmt.Fprintf(&b, "   with retention:    est cost %.0f, %d plans retained (%d unpruneable extras)\n",
		full, fullInfo.PlansRetained, fullInfo.UnpruneableRetained)
	fmt.Fprintf(&b, "   without retention: est cost %.0f, %d plans retained\n", ablated, ablInfo.PlansRetained)
	shapes = append(shapes,
		check("retention never hurts plan quality", full <= ablated*1.0001,
			"with=%.0f without=%.0f", full, ablated),
		check("retention enlarges the plan space", fullInfo.PlansRetained >= ablInfo.PlansRetained,
			"%d vs %d plans", fullInfo.PlansRetained, ablInfo.PlansRetained),
	)

	// --- 2. value-based rank model ---
	h.DB.SetOptions(func(c *predplace.Config) { c.Caching = true })
	aware, err := h.DB.Explain(Fig1Query, predplace.Migration)
	if err != nil {
		return nil, err
	}
	h.DB.SetOptions(func(c *predplace.Config) { c.Caching = false })
	unaware, err := h.DB.Explain(Fig1Query, predplace.Migration)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "\n2. value-based rank model (Fig. 1 example, execution caching on):\n")
	fmt.Fprintf(&b, "   caching-aware planner keeps %d selections below the join; unaware keeps %d\n",
		filtersBelowJoin(aware), filtersBelowJoin(unaware))
	shapes = append(shapes, check(
		"the caching-aware model keeps more selections below the join",
		filtersBelowJoin(aware) > filtersBelowJoin(unaware),
		"aware=%d unaware=%d", filtersBelowJoin(aware), filtersBelowJoin(unaware)))

	// --- 3. bounded predicate caches ---
	h.DB.SetOptions(func(c *predplace.Config) { c.Caching = true })
	defer h.DB.SetOptions(func(c *predplace.Config) { c.Caching, c.CacheMaxEntries = false, 0 })
	fmt.Fprintf(&b, "\n3. bounded caches (Query 3 under PullUp, caching on):\n")
	var invs []int64
	for _, limit := range []int{0, 100, 10} {
		h.DB.SetOptions(func(c *predplace.Config) { c.CacheMaxEntries = limit })
		res, err := h.DB.Query(Query3, predplace.PullUp)
		if err != nil {
			return nil, err
		}
		inv := res.Stats.Invocations["costly100"]
		invs = append(invs, inv)
		fmt.Fprintf(&b, "   limit %5d entries: %6d invocations (charged %.0f)\n",
			limit, inv, res.Stats.Charged())
	}
	// Eviction is deterministic FIFO, but a tighter limit can still evict a
	// binding right before its value recurs, so invocation counts are not
	// monotone in the limit — only bounded-vs-unbounded is meaningful.
	shapes = append(shapes, check(
		"bounding the cache revives duplicate invocations",
		invs[1] > invs[0] && invs[2] > invs[0],
		"unbounded=%d limit100=%d limit10=%d", invs[0], invs[1], invs[2]))

	return &Report{
		ID:    "ablations",
		Title: "Design-choice ablations (unpruneable retention, value-based ranks, bounded caches)",
		Text:  b.String(),
		Shape: shapes,
	}, nil
}

// planWithOptions plans one SQL text with explicit optimizer options,
// returning the estimated cost and diagnostics.
func (h *Harness) planWithOptions(sql string, opts optimizer.Options) (float64, *optimizer.Info, error) {
	_, _, root, info, err := h.planDirect(sql, opts)
	if err != nil {
		return 0, nil, err
	}
	return root.Cost(), info, nil
}

// worstCase plans one SQL text with explicit optimizer options and scores the
// plan over Robust's error box of half-width e.
func (h *Harness) worstCase(sql string, opts optimizer.Options, e float64) (float64, error) {
	opt, _, root, _, err := h.planDirect(sql, opts)
	if err != nil {
		return 0, err
	}
	return opt.WorstCase(root, e)
}

// planDirect binds one SQL text and plans it with the optimizer itself, past
// the facade's knobs.
func (h *Harness) planDirect(sql string, opts optimizer.Options) (*optimizer.Optimizer, *query.Query, plan.Node, *optimizer.Info, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	binder := &sqlparse.Binder{Cat: h.DB.Catalog()}
	bound, err := binder.Bind(stmt)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	opt := optimizer.New(h.DB.Catalog(), opts)
	root, info, err := opt.Plan(bound.Query)
	return opt, bound.Query, root, info, err
}
