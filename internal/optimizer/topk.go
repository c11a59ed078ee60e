package optimizer

// Top-k planning: wrapping finished plans with TopK/Limit roots and the
// order-propagation check that decides which of the two applies. The
// baseline-first tie-break in chooseTopK is a correctness lever, not a
// style choice: when no ordered plan is strictly cheaper, the heap path
// wraps the exact plan the facade sort would have executed, so rows,
// charged cost, and physical I/O match the TopK-off run except for the
// sort itself.

import (
	"math"

	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// TopKSpec carries a query's ORDER BY + LIMIT into the optimizer.
type TopKSpec struct {
	// Key is the ORDER BY column; Desc flips its direction.
	Key  query.ColRef
	Desc bool
	// K is the LIMIT bound (≥ 1).
	K int64
	// Tie lists the tie-break columns (the query's projected columns, in
	// projection order; nil means the whole plan output row). Rows equal on
	// Key and every Tie column project identically, which is what makes the
	// heap's choice among them invisible in the delivered result.
	Tie []query.ColRef
}

// orderSatisfied reports whether a plan's output order satisfies the ORDER
// BY: a chain of (serial) filters over an ascending index scan on the ORDER
// BY key, unbounded or range-bounded (an Eq scan yields one key value, not
// an order), with the key column unique so equal-key tie order never
// arises. Deliberately conservative: joins never satisfy an order here —
// multi-table queries always take the bounded-heap path.
func (o *Optimizer) orderSatisfied(n plan.Node) bool {
	spec := o.opts.TopK
	if spec == nil || spec.Desc {
		// The B-tree iterates ascending only; a descending ORDER BY always
		// needs the heap.
		return false
	}
	for {
		switch t := n.(type) {
		case *plan.Filter:
			n = t.Input
		case *plan.IndexScan:
			if t.Table != spec.Key.Table || t.Col != spec.Key.Col || t.Eq != nil {
				return false
			}
			tab := o.skel.table(t.Table)
			col, err := tab.Column(t.Col)
			if err != nil {
				return false
			}
			return tab.Card > 0 && col.Distinct >= tab.Card
		default:
			return false
		}
	}
}

// wrapTopK wraps one finished root with its top-k operator — an ordered
// Limit when the root already delivers the ORDER BY order, a bounded-heap
// TopK otherwise — and annotates the result.
func (o *Optimizer) wrapTopK(root plan.Node) (plan.Node, error) {
	spec := o.opts.TopK
	var wrapped plan.Node
	if o.orderSatisfied(root) {
		wrapped = &plan.Limit{Input: root, K: spec.K, Ordered: true, Key: spec.Key}
	} else {
		tie := spec.Tie
		if tie == nil {
			plan.FillCols(root)
			tie = root.Cols()
		}
		wrapped = &plan.TopK{Input: root, K: spec.K, Key: spec.Key, Desc: spec.Desc, Tie: tie}
	}
	if err := o.model.AnnotateAbove(wrapped, root); err != nil {
		return nil, err
	}
	return wrapped, nil
}

// chooseTopK wraps each candidate root and returns the cheapest. Candidates
// must lead with the baseline best plan: an alternative (an ordered scan
// whose Limit stops early) displaces it only when strictly cheaper beyond
// the float tolerance, so estimate noise never trades the known-identical
// baseline for a different plan shape.
func (o *Optimizer) chooseTopK(cands []plan.Node, info *Info) (plan.Node, error) {
	var best plan.Node
	bestCost := math.Inf(1)
	for _, root := range cands {
		wrapped, err := o.wrapTopK(root)
		if err != nil {
			return nil, err
		}
		if best == nil || (wrapped.Cost() < bestCost && !cost.ApproxEq(wrapped.Cost(), bestCost)) {
			best, bestCost = wrapped, wrapped.Cost()
		}
	}
	switch best.(type) {
	case *plan.Limit:
		info.TopKKind = "limit"
	default:
		info.TopKKind = "topk"
	}
	return best, nil
}
