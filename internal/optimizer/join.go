package optimizer

import (
	"fmt"
	"math"
	"slices"

	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// skeleton is everything a planning derives from the query and the schema
// alone, before any estimate is consulted: which predicates connect which
// tables, which join methods are legal, which predicates are expensive. It is
// built once per Plan and shared by every enumeration the planning runs —
// Robust's twelve System R runs perturb selectivities between runs, and none
// of this moves with them.
type skeleton struct {
	q    *query.Query
	tabs []*catalog.Table // by q.Tables index
	// masks holds, by q.Preds index, the bitset of q.Tables indices the
	// predicate references.
	masks []uint32
	// buriedBit maps a predicate ID to its bit in subplan.buried: expensive
	// predicates are numbered densely, so the 64-bit set overflows only when
	// a query has more than 64 of them (which newSkeleton rejects), not when
	// an expensive predicate's query-wide ID happens to exceed 63.
	buriedBit []uint64
	shapes    map[shapeKey]*joinShape
}

// shapeKey names a join shape: an outer table set and an inner table index.
type shapeKey struct {
	outer uint32
	inner int
}

// table returns the resolved catalog entry of one of the query's tables.
func (s *skeleton) table(name string) *catalog.Table {
	return s.tabs[tableIndex(s.q, name)]
}

// TooManyExpensiveError reports a query with more expensive predicates than
// the unpruneable-subplan bitset can track.
type TooManyExpensiveError struct{ Count int }

func (e *TooManyExpensiveError) Error() string {
	return fmt.Sprintf("optimizer: %d expensive predicates exceed the limit of 64", e.Count)
}

func newSkeleton(cat *catalog.Catalog, q *query.Query) (*skeleton, error) {
	if n := len(q.Tables); n > 32 {
		return nil, fmt.Errorf("optimizer: %d tables exceed the 32-bit table sets", n)
	}
	s := &skeleton{q: q, shapes: map[shapeKey]*joinShape{}}
	for _, t := range q.Tables {
		tab, err := cat.Table(t)
		if err != nil {
			return nil, err
		}
		s.tabs = append(s.tabs, tab)
	}
	if n := len(expensiveOf(q.Preds)); n > 64 {
		return nil, &TooManyExpensiveError{Count: n}
	}
	nextBit := uint64(1)
	for _, p := range q.Preds {
		var mask uint32
		for _, t := range p.Tables {
			mask |= 1 << uint(tableIndex(q, t))
		}
		s.masks = append(s.masks, mask)
		for len(s.buriedBit) <= p.ID {
			s.buriedBit = append(s.buriedBit, 0)
		}
		if p.IsExpensive() {
			s.buriedBit[p.ID] = nextBit
			nextBit <<= 1
		}
	}
	return s, nil
}

// joinMethod is one way to join an outer table set with an inner table.
type joinMethod struct {
	m        plan.JoinMethod
	primary  *query.Predicate // nil = cross product (NestLoop only)
	indexCol string
	// innerRef and outerRef are an equality primary's two sides.
	innerRef, outerRef query.ColRef
	// secondaries are the other connecting predicates, applied above the join.
	secondaries []*query.Predicate
}

// joinShape is the estimate-independent part of joining an outer table set
// with one inner table.
type joinShape struct {
	// conns are the predicates that span the two sides: every referenced
	// table is available in the join, and at least one lives on each side.
	conns []*query.Predicate
	// eq lists hash, merge and (where the inner column is indexed) index
	// nested-loop joins per cheap equality connecting predicate.
	eq []joinMethod
}

// shape returns the memoized join shape of (outer table set, inner table).
func (s *skeleton) shape(outerSet uint32, innerIdx int) *joinShape {
	key := shapeKey{outerSet, innerIdx}
	if sh, ok := s.shapes[key]; ok {
		return sh
	}
	sh := &joinShape{}
	innerBit := uint32(1) << uint(innerIdx)
	for pi, p := range s.q.Preds {
		if m := s.masks[pi]; p.IsJoin() && m&^(outerSet|innerBit) == 0 && m&innerBit != 0 && m&outerSet != 0 {
			sh.conns = append(sh.conns, p)
		}
	}
	innerTable := s.q.Tables[innerIdx]
	for _, p := range sh.conns {
		if p.Kind != query.KindJoinCmp || p.Op != expr.OpEQ || p.IsExpensive() {
			continue
		}
		md := joinMethod{m: plan.HashJoin, primary: p, secondaries: without(sh.conns, p)}
		md.innerRef, md.outerRef = sides(p, innerTable)
		sh.eq = append(sh.eq, md)
		md.m = plan.MergeJoin
		sh.eq = append(sh.eq, md)
		if s.tabs[innerIdx].HasIndex(md.innerRef.Col) {
			md.m, md.indexCol = plan.IndexNestLoop, md.innerRef.Col
			sh.eq = append(sh.eq, md)
		}
	}
	s.shapes[key] = sh
	return sh
}

// methods completes the shape under the current estimates: after the
// equality methods comes a nested loop whose primary is the minimal-rank
// connecting predicate (footnote 1 of the paper) — a cross product when
// nothing connects — and ranks move with the selectivities.
func (sh *joinShape) methods() []joinMethod {
	nl := minRankPred(sh.conns)
	return append(sh.eq[:len(sh.eq):len(sh.eq)],
		joinMethod{m: plan.NestLoop, primary: nl, secondaries: without(sh.conns, nl)})
}

// tableIndex returns the position of t in q.Tables.
func tableIndex(q *query.Query, t string) int {
	for i, x := range q.Tables {
		if x == t {
			return i
		}
	}
	return -1
}

// sides splits an equality join predicate into (innerSide, outerSide)
// references relative to innerTable.
func sides(p *query.Predicate, innerTable string) (innerRef, outerRef query.ColRef) {
	if p.Left.Table == innerTable {
		return p.Left, p.Right
	}
	return p.Right, p.Left
}

// minRankPred picks the minimal-rank predicate (nil if none).
func minRankPred(preds []*query.Predicate) *query.Predicate {
	var best *query.Predicate
	bestRank := math.Inf(1)
	for _, p := range preds {
		if r := p.Rank(); best == nil || r < bestRank {
			best, bestRank = p, r
		}
	}
	return best
}

// buildJoin constructs one candidate join of two priced subplans with the
// algorithm's pullup policy and returns its subplan (nil when the
// combination is invalid). It prices only the nodes it adds: the join, any
// input filter chain it rebuilds without hoisted selections, and the filters
// above the join.
func (o *Optimizer) buildJoin(outer, inner *subplan, md joinMethod) (*subplan, error) {
	j := &plan.Join{
		Method:           md.m,
		Outer:            outer.root,
		Inner:            inner.root,
		Primary:          md.primary,
		InnerIndexCol:    md.indexCol,
		ExpensivePrimary: md.primary != nil && md.primary.IsExpensive(),
	}
	order := outer.order // hash and nested-loop joins preserve the outer stream's order
	if md.m == plan.MergeJoin {
		j.SortOuter = outer.order != md.outerRef
		j.SortInner = inner.order != md.innerRef
		order = md.outerRef
	}
	// The join over its inputs as they stand is the candidate when nothing is
	// hoisted, and otherwise the tentative join whose per-input ranks at
	// plan-time cardinalities decide the hoisting (§5.2).
	if err := o.model.AnnotateAbove(j, outer.root, inner.root); err != nil {
		return nil, nil //nolint:nilerr // invalid method/shape combination: skip candidate
	}
	hoistOut, hoistIn := o.chooseHoists(j, outer, inner)
	keepOut, keepIn := outer.chain, inner.chain
	if len(hoistOut) > 0 {
		keepOut = subtract(keepOut, hoistOut)
		j.Outer = chainFilters(outer.base, keepOut)
	}
	if len(hoistIn) > 0 {
		keepIn = subtract(keepIn, hoistIn)
		j.Inner = chainFilters(inner.base, keepIn)
	}
	if len(hoistOut)+len(hoistIn) > 0 {
		if err := o.model.AnnotateAbove(j, outer.root, outer.base, inner.root, inner.base); err != nil {
			return nil, nil //nolint:nilerr
		}
	}

	// Everything above the join: secondaries plus hoisted selections, in
	// ascending rank order (bottom first).
	above := make([]*query.Predicate, 0, len(md.secondaries)+len(hoistOut)+len(hoistIn))
	above = append(append(append(above, md.secondaries...), hoistOut...), hoistIn...)
	o.sortByRank(above, j.EstCard)
	root := chainFilters(j, above)
	if err := o.model.AnnotateAbove(root, j); err != nil {
		return nil, err
	}

	buried := outer.buried | inner.buried
	for _, chain := range [2][]*query.Predicate{keepOut, keepIn} {
		for _, p := range chain {
			buried |= o.skel.buriedBit[p.ID] // zero for cheap predicates
		}
	}
	return &subplan{
		root: root, base: j, chain: above,
		set: outer.set | inner.set, order: order,
		cost: root.Cost(), card: root.Card(), buried: buried,
	}, nil
}

// chooseHoists decides which expensive selections to pull above the join,
// per the configured algorithm. Inner pullup is decided first (§5.2).
func (o *Optimizer) chooseHoists(j *plan.Join, outer, inner *subplan) (hoistOut, hoistIn []*query.Predicate) {
	switch o.opts.Algorithm {
	case NaivePushDown, PushDown:
		return nil, nil
	case PullUp:
		return expensiveOf(outer.chain), expensiveOf(inner.chain)
	default: // PullRank, Migration
		os, is := o.model.JoinInputStats(j)
		innerRank := is.Rank()
		for _, p := range inner.chain {
			if p.IsExpensive() && o.selRank(p, inner.card) > innerRank {
				hoistIn = append(hoistIn, p)
			}
		}
		outerRank := os.Rank()
		for _, p := range outer.chain {
			if p.IsExpensive() && o.selRank(p, outer.card) > outerRank {
				hoistOut = append(hoistOut, p)
			}
		}
		return hoistOut, hoistIn
	}
}

func expensiveOf(preds []*query.Predicate) []*query.Predicate {
	var out []*query.Predicate
	for _, p := range preds {
		if p.IsExpensive() {
			out = append(out, p)
		}
	}
	return out
}

// subtract returns preds minus remove, preserving order.
func subtract(preds, remove []*query.Predicate) []*query.Predicate {
	var out []*query.Predicate
	for _, p := range preds {
		if !slices.Contains(remove, p) {
			out = append(out, p)
		}
	}
	return out
}

// without returns preds minus the one predicate drop, preserving order.
func without(preds []*query.Predicate, drop *query.Predicate) []*query.Predicate {
	return subtract(preds, []*query.Predicate{drop})
}
