package optimizer

import (
	"fmt"
	"sort"

	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// placement fixes where each expensive selection goes in an ordered plan:
// ScanLevel applies it at its home table's access path (below every join its
// stream allows); a value ≥ 0 applies it in AfterFilters of that step.
const ScanLevel = -1

// orderedPlans builds the Pareto set (cheapest per output order) of
// left-deep plans for a fixed table order with a fixed expensive-predicate
// placement. Cheap selections sit at scans; cheap secondary join predicates
// sit immediately above their join. Used by the LDL and Exhaustive planners.
func (o *Optimizer) orderedPlans(q *query.Query, order []int,
	place map[*query.Predicate]int) ([]*subplan, error) {

	if len(order) == 0 {
		return nil, fmt.Errorf("optimizer: empty table order")
	}
	scanLevelOf := func(t string) []*query.Predicate {
		var out []*query.Predicate
		for p, pos := range place {
			if pos == ScanLevel && len(p.Tables) == 1 && p.Tables[0] == t {
				out = append(out, p)
			}
		}
		return o.orderByRank(out, 1e18)
	}
	afterOf := func(step int) []*query.Predicate {
		var out []*query.Predicate
		for p, pos := range place {
			if pos == step {
				out = append(out, p)
			}
		}
		return o.orderByRank(out, 1e18)
	}

	// Base table.
	basePaths, err := o.accessPathsPlace(q, order[0], false)
	if err != nil {
		return nil, err
	}
	cur := make([]*subplan, 0, len(basePaths))
	for _, bp := range basePaths {
		root := chainFilters(bp.root, scanLevelOf(q.Tables[order[0]]))
		if err := o.model.Annotate(root); err != nil {
			return nil, err
		}
		cur = append(cur, &subplan{root: root, set: bp.set, order: bp.order,
			cost: root.Cost(), card: root.Card()})
	}

	for step, idx := range order[1:] {
		innerTable := q.Tables[idx]
		innerPaths, err := o.accessPathsPlace(q, idx, false)
		if err != nil {
			return nil, err
		}
		var next []*subplan
		for _, op := range cur {
			methods := o.skel.shape(op.set, idx).methods()
			for _, ip := range innerPaths {
				innerRoot := chainFilters(ip.root, scanLevelOf(innerTable))
				for _, md := range methods {
					j := &plan.Join{
						Method:           md.m,
						Outer:            op.root,
						Inner:            innerRoot,
						Primary:          md.primary,
						InnerIndexCol:    md.indexCol,
						ExpensivePrimary: md.primary != nil && md.primary.IsExpensive(),
					}
					outOrder := op.order
					if md.m == plan.MergeJoin {
						j.SortOuter = op.order != md.outerRef
						j.SortInner = ip.order != md.innerRef
						outOrder = md.outerRef
					}
					above := append(o.orderByRank(md.secondaries, 1e18), afterOf(step)...)
					root := chainFilters(j, above)
					if err := o.model.AnnotateAbove(root, op.root, ip.root); err != nil {
						continue // invalid method/shape combination
					}
					next = append(next, &subplan{
						root: root, set: op.set | ip.set, order: outOrder,
						cost: root.Cost(), card: root.Card(),
					})
				}
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("optimizer: no join method applicable at step %d", step)
		}
		// Pareto prune: cheapest per output order, deterministically sorted.
		bestBy := map[query.ColRef]*subplan{}
		for _, sp := range next {
			if cur, ok := bestBy[sp.order]; !ok || sp.cost < cur.cost {
				bestBy[sp.order] = sp
			}
		}
		cur = cur[:0]
		for _, sp := range bestBy {
			cur = append(cur, sp)
		}
		sort.Slice(cur, func(a, b int) bool {
			if !cost.ApproxEq(cur[a].cost, cur[b].cost) {
				return cur[a].cost < cur[b].cost
			}
			return cur[a].order.String() < cur[b].order.String()
		})
	}
	return cur, nil
}

// permutations invokes fn with every permutation of items (in place; fn must
// not retain the slice).
func permutations(items []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(items) {
			fn(items)
			return
		}
		for i := k; i < len(items); i++ {
			items[k], items[i] = items[i], items[k]
			rec(k + 1)
			items[k], items[i] = items[i], items[k]
		}
	}
	rec(0)
}
