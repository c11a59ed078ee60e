package optimizer

// ORDER BY / LIMIT planning: wrapping finished plans with TopK/Limit roots
// and the order-propagation check that decides which of the two applies.
// The baseline-first tie-break in chooseTopK is a correctness lever, not a
// style choice: when no ordered plan is strictly cheaper, the root wraps the
// exact plan the statement gets without its ORDER BY/LIMIT, so a heap root
// charges exactly what that statement charges and a LIMIT without ORDER BY
// delivers a prefix of its rows.

import (
	"math"

	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// TopKSpec carries a query's ORDER BY and/or LIMIT into the optimizer.
type TopKSpec struct {
	// Key is the ORDER BY column (nil: LIMIT alone); Desc flips its
	// direction.
	Key  *query.ColRef
	Desc bool
	// K is the LIMIT bound, negative for none.
	K int64
	// Tie lists the tie-break columns (the query's projected columns, in
	// projection order; nil means the whole plan output row). Rows equal on
	// Key and every Tie column project identically, which is what makes the
	// heap's choice among them invisible in the delivered result.
	Tie []query.ColRef
}

// unordered reports that the statement asks for no order — no ORDER BY, or
// no row to order (LIMIT 0): the placement algorithm chooses as if the
// clauses were absent, and Plan wraps a plain Limit over its choice.
func (s *TopKSpec) unordered() bool {
	return s == nil || s.Key == nil || s.K == 0
}

// indexOrder reports whether an ascending scan of an index on the ORDER BY
// key could answer the statement under an early-terminating Limit: there is
// a key, a bound to stop at, and the direction the B-tree iterates in (a
// descending ORDER BY always needs the heap).
func (s *TopKSpec) indexOrder() bool {
	return s != nil && s.Key != nil && !s.Desc && s.K >= 1
}

// orderSatisfied reports whether a plan's output order satisfies the ORDER
// BY: a chain of (serial) filters over an ascending index scan on the ORDER
// BY key, unbounded or range-bounded (an Eq scan yields one key value, not
// an order), with the key column unique so equal-key tie order never
// arises. Deliberately conservative: joins never satisfy an order here —
// multi-table queries always take the bounded-heap path.
func (o *Optimizer) orderSatisfied(n plan.Node) bool {
	spec := o.opts.TopK
	if !spec.indexOrder() {
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

// wrapTopK wraps one finished root with its ORDER BY/LIMIT operator — a
// plain Limit when no order is asked for (or no row is: LIMIT 0), an ordered
// Limit when the root already delivers the ORDER BY order, a TopK heap
// otherwise — and annotates the result.
func (o *Optimizer) wrapTopK(root plan.Node) (plan.Node, error) {
	spec := o.opts.TopK
	var wrapped plan.Node
	switch {
	case spec.unordered():
		wrapped = &plan.Limit{Input: root, K: spec.K}
	case o.orderSatisfied(root):
		wrapped = &plan.Limit{Input: root, K: spec.K, Ordered: true, Key: *spec.Key}
	default:
		tie := spec.Tie
		if tie == nil {
			plan.FillCols(root)
			tie = root.Cols()
		}
		wrapped = &plan.TopK{Input: root, K: spec.K, Key: *spec.Key, Desc: spec.Desc, Tie: tie}
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
