package cost

// Transfer-side estimation (DESIGN.md §16): before planning, the optimizer
// derives each table's received-filter selectivity from the query's join-key
// equivalence classes, so the DP, the rank calculations, and PushDown vs
// Migration decisions all see the post-transfer cardinalities. The estimate
// describes the executor's prepass from the same two derivations it runs on:
// the classes of query.JoinKeyClasses, and per-table local selectivities
// from the predicates Predicate.TransferLocal says the prepass applies.

import (
	"math"
	"sort"

	"predplace/internal/catalog"
	"predplace/internal/query"
)

// transferMinSel floors the combined per-table selectivity; estimates below
// it are indistinguishable from "everything pruned" and would destabilize
// join-order comparisons.
const transferMinSel = 1e-6

// TransferInfo carries the optimizer's transfer estimates: set as
// Model.Transfer it adjusts every scan's cardinality and cost, and its
// PrepassCost is added once to the plan's total (optimizer.Info.EstCost),
// never inside the recursive annotation — the prepass runs once per query,
// not once per candidate subtree.
type TransferInfo struct {
	// Sel maps table → the combined selectivity of its received filters
	// (product over its equivalence classes of the containment ratio
	// against the class's smallest surviving member).
	Sel map[string]float64
	// Recv maps table → its own join-key columns with received filters,
	// sorted — what the scans will probe, and what EXPLAIN annotates.
	Recv map[string][]string
	// Classes counts the equivalence classes spanning two or more tables.
	Classes int
	// PrepassCost estimates the transfer prepass's charged cost: up to two
	// heap scans per participating table plus its filter probes and builds.
	// Deliberately conservative (the backward pass often skips tables, and
	// builds happen only on survivors).
	PrepassCost float64
}

// ComputeTransfer estimates predicate transfer's effect for a query, or nil
// when no equality-join equivalence class spans two tables (transfer would
// be a no-op). Caching mirrors the executor: with the predicate cache on,
// cacheable expensive selections participate in the prepass, exporting
// their selectivity into the filters their table seeds.
func ComputeTransfer(cat *catalog.Catalog, q *query.Query, caching bool) (*TransferInfo, error) {
	// Per-table local selectivity of the predicates the prepass applies.
	localSel := func(t string) float64 {
		sel := 1.0
		for _, p := range q.SelectionsOn(t) {
			if p.TransferLocal(caching) && p.Selectivity > 0 && p.Selectivity < 1 {
				sel *= p.Selectivity
			}
		}
		return sel
	}

	// Classes, members and tables are visited in sorted order: the products
	// and the sum below are floating-point, and map order would move their
	// last bit from one planning of the same query to the next.
	info := &TransferInfo{Sel: map[string]float64{}, Recv: map[string][]string{}}
	classTables := map[string]int{} // table → number of classes it is in
	for _, members := range query.JoinKeyClasses(q.Preds) {
		info.Classes++
		// Surviving distinct values per member: min(distinct, card×localSel).
		type member struct {
			ref      query.ColRef
			distinct float64
			sd       float64
		}
		ms := make([]member, 0, len(members))
		for _, ref := range members {
			tab, err := cat.Table(ref.Table)
			if err != nil {
				return nil, err
			}
			col, err := tab.Column(ref.Col)
			if err != nil {
				return nil, err
			}
			d := float64(col.Distinct)
			if d <= 0 {
				d = float64(tab.Card)
			}
			ms = append(ms, member{ref: ref, distinct: d, sd: math.Min(d, float64(tab.Card)*localSel(ref.Table))})
		}
		for i, m := range ms {
			// Containment: of this member's distinct values, at most the
			// smallest other member's surviving distinct count can join.
			minOther := math.Inf(1)
			for j, o := range ms {
				if j != i && o.ref.Table != m.ref.Table && o.sd < minOther {
					minOther = o.sd
				}
			}
			if math.IsInf(minOther, 1) {
				continue
			}
			sel := math.Min(1, minOther/m.distinct)
			t := m.ref.Table
			if _, ok := info.Sel[t]; !ok {
				info.Sel[t] = 1
			}
			info.Sel[t] = math.Max(info.Sel[t]*sel, transferMinSel)
			info.Recv[t] = append(info.Recv[t], m.ref.Col)
			classTables[t]++
		}
	}
	if info.Classes == 0 {
		return nil, nil
	}
	for t := range info.Recv {
		sort.Strings(info.Recv[t])
	}
	for _, t := range q.Tables {
		n := classTables[t]
		if n == 0 {
			continue
		}
		tab, err := cat.Table(t)
		if err != nil {
			return nil, err
		}
		info.PrepassCost += 2 * (float64(tab.Pages())*SeqPageCost +
			float64(tab.Card)*float64(n)*(BloomProbePerTuple+BloomAddPerTuple))
	}
	return info, nil
}
