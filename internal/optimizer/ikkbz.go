package optimizer

import (
	"fmt"
	"math"
	"sort"

	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// This file implements the IK-KBZ polynomial-time join-ordering algorithm
// (Ibaraki & Kameda 1984; Krishnamurthy, Boral & Zaniolo 1986) that [KZ88]
// proposed pairing with the LDL rewrite (§3.1 of the paper). Expensive
// selections enter as virtual relations: children of their base relation in
// the precedence tree, with T = selectivity and per-stream-tuple cost = the
// function's cost — exactly the LDL view of a selection as a join with an
// infinite relation whose join cost is the function cost.
//
// The algorithm requires an acyclic (tree) query graph; cyclic or
// disconnected graphs fall back to the exhaustive LDL enumerator.

// ikItem is one element of an IK-KBZ sequence: a real table or a virtual
// selection.
type ikItem struct {
	table   int              // table index, or -1 for a virtual selection
	virtual *query.Predicate // non-nil for virtual selections
}

// ikUnit is a (possibly compound) module of the ASI normalization: T is the
// multiplicative effect on the stream cardinality, C the cost per incoming
// stream tuple; compound units concatenate their members' items.
type ikUnit struct {
	T, C  float64
	items []ikItem
}

func (u ikUnit) rank() float64 { return query.Rank(u.T, u.C) }

// ikCompose fuses unit a followed by unit b (the ASI composition — the same
// law as the paper's join-group rank).
func ikCompose(a, b ikUnit) ikUnit {
	return ikUnit{
		T:     a.T * b.T,
		C:     a.C + a.T*b.C,
		items: append(append([]ikItem(nil), a.items...), b.items...),
	}
}

// ikNormalize merges adjacent out-of-rank-order units so ranks ascend.
func ikNormalize(chain []ikUnit) []ikUnit {
	var out []ikUnit
	for _, u := range chain {
		out = append(out, u)
		for len(out) >= 2 && out[len(out)-2].rank() > out[len(out)-1].rank() {
			merged := ikCompose(out[len(out)-2], out[len(out)-1])
			out = out[:len(out)-2]
			out = append(out, merged)
		}
	}
	return out
}

// ikMerge interleaves normalized chains by ascending rank (stable).
func ikMerge(chains [][]ikUnit) []ikUnit {
	var all []ikUnit
	for _, c := range chains {
		all = append(all, c...)
	}
	// Each chain is already ascending; a stable sort by rank preserves
	// intra-chain precedence because equal-traversal order is kept and
	// within a chain ranks ascend.
	sort.SliceStable(all, func(i, j int) bool { return all[i].rank() < all[j].rank() })
	return all
}

// ikEdge is a query-graph edge with combined selectivity.
type ikEdge struct {
	to  int
	sel float64
}

// buildIKGraph builds the table-level query graph, verifying it is a tree.
func buildIKGraph(q *query.Query) (map[int][]ikEdge, error) {
	n := len(q.Tables)
	idx := map[string]int{}
	for i, t := range q.Tables {
		idx[t] = i
	}
	type pair struct{ a, b int }
	sel := map[pair]float64{}
	// edges keeps the pairs in first-seen predicate order: adjacency order
	// breaks rank ties in ikMerge, so it must not come from map iteration.
	var edges []pair
	for _, p := range q.Preds {
		if !p.IsJoin() {
			continue
		}
		if len(p.Tables) != 2 {
			return nil, fmt.Errorf("optimizer: hyper-edge predicate %v not supported by IK-KBZ", p)
		}
		a, b := idx[p.Tables[0]], idx[p.Tables[1]]
		if a > b {
			a, b = b, a
		}
		k := pair{a, b}
		if _, ok := sel[k]; !ok {
			sel[k] = 1
			edges = append(edges, k)
		}
		sel[k] *= p.Selectivity
	}
	if len(sel) != n-1 {
		return nil, fmt.Errorf("optimizer: query graph is not a tree (%d tables, %d edges)", n, len(sel))
	}
	adj := map[int][]ikEdge{}
	for _, k := range edges {
		adj[k.a] = append(adj[k.a], ikEdge{to: k.b, sel: sel[k]})
		adj[k.b] = append(adj[k.b], ikEdge{to: k.a, sel: sel[k]})
	}
	// Connectivity check (tree with n-1 edges is a tree iff connected).
	seen := map[int]bool{0: true}
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range adj[v] {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	if len(seen) != n {
		return nil, fmt.Errorf("optimizer: query graph is disconnected")
	}
	return adj, nil
}

// ikkbzOrder runs IK-KBZ over every possible root and returns the best
// (table order, virtual placement) found, with its ASI cost.
func (o *Optimizer) ikkbzOrder(q *query.Query, virtuals []*query.Predicate) ([]int, map[*query.Predicate]int, error) {
	adj, err := buildIKGraph(q)
	if err != nil {
		return nil, nil, err
	}
	n := len(q.Tables)

	// Cardinalities after cheap local selections.
	card := make([]float64, n)
	for i, t := range q.Tables {
		c := float64(o.skel.tabs[i].Card)
		for _, p := range q.SelectionsOn(t) {
			if !p.IsExpensive() {
				c *= p.Selectivity
			}
		}
		card[i] = c
	}
	virtualsOf := make(map[int][]*query.Predicate)
	for _, p := range virtuals {
		i := tableIndex(q, p.Tables[0])
		virtualsOf[i] = append(virtualsOf[i], p)
	}

	// κ converts produced tuples into I/O-unit cost so join and selection
	// ranks are commensurable.
	const kappa = 2 * cost.HashSpillPerTuple

	bestCost := math.Inf(1)
	var bestSeq []ikItem
	for root := 0; root < n; root++ {
		var solve func(v, parent int, edgeSel float64) []ikUnit
		solve = func(v, parent int, edgeSel float64) []ikUnit {
			// Unit for v itself (relative to the incoming stream).
			T := edgeSel * card[v]
			u := ikUnit{T: T, C: math.Max(T*kappa, 1e-9), items: []ikItem{{table: v}}}
			var chains [][]ikUnit
			// Virtual selections hang off their base relation.
			for _, p := range virtualsOf[v] {
				chains = append(chains, []ikUnit{{
					T:     p.Selectivity,
					C:     p.CostPerTuple,
					items: []ikItem{{table: -1, virtual: p}},
				}})
			}
			for _, e := range adj[v] {
				if e.to == parent {
					continue
				}
				chains = append(chains, ikNormalize(solve(e.to, v, e.sel)))
			}
			return append([]ikUnit{u}, ikMerge(chains)...)
		}
		chain := solve(root, -1, 1)
		// Root unit: the initial scan.
		chain[0].T = card[root]
		chain[0].C = card[root] / 78 * cost.SeqPageCost // pages ≈ card/78
		// ASI cost of the sequence.
		total, prefix := 0.0, 1.0
		var seq []ikItem
		for _, u := range chain {
			total += prefix * u.C
			prefix *= u.T
			seq = append(seq, u.items...)
		}
		if total < bestCost {
			bestCost = total
			bestSeq = seq
		}
	}

	// Expand the item sequence into a table order plus virtual placements.
	var order []int
	place := map[*query.Predicate]int{}
	for _, it := range bestSeq {
		if it.virtual != nil {
			if len(order) <= 1 {
				place[it.virtual] = ScanLevel
			} else {
				place[it.virtual] = len(order) - 2
			}
			continue
		}
		order = append(order, it.table)
	}
	if len(order) != n {
		return nil, nil, fmt.Errorf("optimizer: IK-KBZ produced a bad sequence")
	}
	return order, place, nil
}

// planLDLIKKBZ is the LDL algorithm with IK-KBZ ordering (the [KZ88]
// combination): polynomial in the number of relations plus expensive
// selections, restricted to acyclic query graphs; cyclic graphs fall back to
// the exhaustive LDL enumeration.
func (o *Optimizer) planLDLIKKBZ(q *query.Query) (plan.Node, *Info, error) {
	var virtuals []*query.Predicate
	for _, p := range q.Preds {
		if p.IsExpensive() && !p.IsJoin() {
			virtuals = append(virtuals, p)
		}
	}
	if len(q.Tables) == 1 {
		return o.planSystemR(q)
	}
	order, place, err := o.ikkbzOrder(q, virtuals)
	if err != nil {
		return o.planLDL(q) // cyclic/disconnected: exhaustive LDL
	}
	plans, err := o.orderedPlans(q, order, place)
	if err != nil {
		return nil, nil, err
	}
	best := cheapest(plans)
	return best.root, &Info{PlansRetained: len(plans)}, nil
}
