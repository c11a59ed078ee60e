package optimizer

import (
	"fmt"

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
// sit immediately above their join. Candidates are priced on one scratch
// and retained by the System R DP's prune rule. Used by the LDL and
// Exhaustive planners.
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

	var c candidate
	for step, idx := range order[1:] {
		innerTable := q.Tables[idx]
		innerPaths, err := o.accessPathsPlace(q, idx, false)
		if err != nil {
			return nil, err
		}
		after := afterOf(step)
		var next []*subplan
		for _, op := range cur {
			sh := o.skel.shape(op.set, idx)
			nl := sh.nestLoop(o.model)
			for _, ip := range innerPaths {
				innerRoot := chainFilters(ip.root, scanLevelOf(innerTable))
				for k := 0; k <= len(sh.eq); k++ {
					md := sh.method(k, &nl)
					c.join = plan.Join{
						Method:           md.m,
						Outer:            op.root,
						Inner:            innerRoot,
						Primary:          md.primary,
						InnerIndexCol:    md.indexCol,
						ExpensivePrimary: md.primary != nil && md.primary.IsExpensive(),
					}
					outOrder := op.order
					if md.m == plan.MergeJoin {
						c.join.SortOuter = op.order != md.outerRef
						c.join.SortInner = ip.order != md.innerRef
						outOrder = md.outerRef
					}
					n := len(md.conns) + len(after)
					c.reset(n, n)
					above := md.appendSecondaries(c.take(n))
					o.sortByRank(above, 1e18)
					above = append(above, after...)
					root := c.chain(&c.join, above)
					if err := o.model.AnnotateAbove(root, op.root, ip.root); err != nil {
						continue // invalid method/shape combination
					}
					c.sp = subplan{
						root: root, base: &c.join, chain: above,
						set: op.set | ip.set, order: outOrder,
						cost: root.Cost(), card: root.Card(),
					}
					next = o.prune(next, &c)
				}
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("optimizer: no join method applicable at step %d", step)
		}
		// prune kept the cheapest per output order (these plans bury nothing),
		// in first-appearance order; settle sorts them deterministically.
		o.settle(next)
		cur = next
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
