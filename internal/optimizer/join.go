package optimizer

import (
	"fmt"
	"math"
	"slices"

	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// skeleton is everything a planning derives from the query and the schema
// alone, before any estimate is consulted: which predicates connect which
// tables, which join methods are legal, which predicates are expensive. It is
// built once per Plan and shared by every enumeration the planning runs —
// Robust's nine System R runs price under three estimate scalings, and none
// of this moves with them. Once its shape memo is filled (fillShapes) it is
// read-only, so enumerations may share it from several goroutines.
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
	if n := len(appendExpensive(nil, q.Preds)); n > 64 {
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
	// conns are the shape's connecting predicates; those other than the
	// primary are the secondaries, applied above the join.
	conns []*query.Predicate
}

// appendSecondaries appends the method's secondaries to dst.
func (md *joinMethod) appendSecondaries(dst []*query.Predicate) []*query.Predicate {
	for _, p := range md.conns {
		if p != md.primary {
			dst = append(dst, p)
		}
	}
	return dst
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

// fillShapes memoizes the join shape of every (outer table set, inner table)
// pair of the query — every pair the System R DP visits — after which shape
// only reads the memo. The caller keeps the query within the System R limit.
func (s *skeleton) fillShapes() {
	n := len(s.q.Tables)
	for mask := uint32(1); mask < 1<<uint(n); mask++ {
		for i := 0; i < n; i++ {
			if outer := mask &^ (1 << uint(i)); outer != mask && outer != 0 {
				s.shape(outer, i)
			}
		}
	}
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
	// Up to three methods per connecting predicate.
	sh.eq = make([]joinMethod, 0, 3*len(sh.conns))
	innerTable := s.q.Tables[innerIdx]
	for _, p := range sh.conns {
		if p.Kind != query.KindJoinCmp || p.Op != expr.OpEQ || p.IsExpensive() {
			continue
		}
		md := joinMethod{m: plan.HashJoin, primary: p, conns: sh.conns}
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

// nestLoop is the shape's last join method under m's estimates, after its
// equality methods: a nested loop whose primary is the minimal-rank
// connecting predicate (footnote 1 of the paper) — a cross product when
// nothing connects. Ranks move with the estimates, so each enumeration builds
// its own and the shape stays as it is.
func (sh *joinShape) nestLoop(m *cost.Model) joinMethod {
	return joinMethod{m: plan.NestLoop, primary: minRankPred(m, sh.conns), conns: sh.conns}
}

// method returns the shape's k'th join method, 0 ≤ k ≤ len(sh.eq): an
// equality method, or nl, the shape's nestLoop, at k = len(sh.eq).
func (sh *joinShape) method(k int, nl *joinMethod) *joinMethod {
	if k < len(sh.eq) {
		return &sh.eq[k]
	}
	return nl
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

// minRankPred picks the predicate of minimal rank under m (nil if none).
func minRankPred(m *cost.Model, preds []*query.Predicate) *query.Predicate {
	var best *query.Predicate
	bestRank := math.Inf(1)
	for _, p := range preds {
		if r := m.Rank(p); best == nil || r < bestRank {
			best, bestRank = p, r
		}
	}
	return best
}

// candidate is the storage one enumeration prices its candidate joins on:
// the join, the filters of any input chain rebuilt without hoisted
// selections and of the chain above the join, and the predicate lists those
// chains are built from. The subplan buildJoin returns lives here and is
// valid until the next candidate is built; the prune rule copies out (keep)
// the candidates it admits, so a losing candidate costs no heap.
type candidate struct {
	sp   subplan
	join plan.Join
	// filters holds, bottom first, the rebuilt outer chain (nOut filters),
	// the rebuilt inner chain (nIn) and the chain above the join.
	filters   []plan.Filter
	nOut, nIn int
	// preds is the slab take carves the predicate lists from.
	preds []*query.Predicate
	// owned is the storage behind each entry of the list prune is building,
	// by index.
	owned []*keptJoin
}

// reset empties the candidate for the next one: filters has room for
// nFilters without moving (a filter's Input may point at the one below it)
// and preds for nPreds.
func (c *candidate) reset(nFilters, nPreds int) {
	c.filters = slices.Grow(c.filters[:0], nFilters)
	c.preds = slices.Grow(c.preds[:0], nPreds)
	c.nOut, c.nIn = 0, 0
}

// take carves an empty list of capacity n from the predicate slab.
func (c *candidate) take(n int) []*query.Predicate {
	at := len(c.preds)
	c.preds = c.preds[:at+n]
	return c.preds[at : at : at+n]
}

// chain is chainFilters on the filter slab.
func (c *candidate) chain(node plan.Node, preds []*query.Predicate) plan.Node {
	for _, p := range preds {
		c.filters = append(c.filters, plan.Filter{Input: node, Pred: p})
		node = &c.filters[len(c.filters)-1]
	}
	return node
}

// keptJoin is the storage of a candidate copied out of its scratch: the
// subplan, its join and its filters.
type keptJoin struct {
	sp      subplan
	join    plan.Join
	filters []plan.Filter
}

// keep copies the candidate out of the scratch, annotations included, into
// k — a new keptJoin when k is nil, else one whose entry the candidate
// replaces. What the copy points at below its own nodes (table entries,
// access paths) is shared, never scratch.
func (c *candidate) keep(k *keptJoin) *keptJoin {
	if k == nil {
		k = new(keptJoin)
	}
	chain := k.sp.chain[:0]
	k.sp, k.join = c.sp, c.join
	k.filters = append(k.filters[:0], c.filters...)
	fs := k.filters
	link := func(lo, hi int, below plan.Node) plan.Node {
		for i := lo; i < hi; i++ {
			fs[i].Input = below
			below = &fs[i]
		}
		return below
	}
	if c.nOut > 0 {
		k.join.Outer = link(0, c.nOut, fs[0].Input)
	}
	if c.nIn > 0 {
		k.join.Inner = link(c.nOut, c.nOut+c.nIn, fs[c.nOut].Input)
	}
	k.sp.base = &k.join
	k.sp.root = link(c.nOut+c.nIn, len(fs), &k.join)
	k.sp.chain = append(chain, c.sp.chain...)
	return k
}

// buildJoin prices one candidate join of two priced subplans on c with the
// algorithm's pullup policy and returns its subplan (nil when the
// combination is invalid), valid until c's next candidate. It prices only
// the nodes it adds: the join, any input filter chain it rebuilds without
// hoisted selections, and the filters above the join.
func (o *Optimizer) buildJoin(c *candidate, outer, inner *subplan, md *joinMethod) (*subplan, error) {
	c.join = plan.Join{
		Method:           md.m,
		Outer:            outer.root,
		Inner:            inner.root,
		Primary:          md.primary,
		InnerIndexCol:    md.indexCol,
		ExpensivePrimary: md.primary != nil && md.primary.IsExpensive(),
	}
	j := &c.join
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
	// Each chain is at most split into hoisted and kept, and the chain above
	// holds the secondaries and what is hoisted.
	nOut, nIn := len(outer.chain), len(inner.chain)
	c.reset(nOut+nIn+len(md.conns), len(md.conns)+3*(nOut+nIn))
	hoistOut, hoistIn := o.chooseHoists(j, outer, inner, c.take(nOut), c.take(nIn))
	keepOut, keepIn := outer.chain, inner.chain
	if len(hoistOut) > 0 {
		keepOut = appendSubtract(c.take(nOut), keepOut, hoistOut)
		j.Outer = c.chain(outer.base, keepOut)
		c.nOut = len(keepOut)
	}
	if len(hoistIn) > 0 {
		keepIn = appendSubtract(c.take(nIn), keepIn, hoistIn)
		j.Inner = c.chain(inner.base, keepIn)
		c.nIn = len(keepIn)
	}
	if len(hoistOut)+len(hoistIn) > 0 {
		if err := o.model.AnnotateAbove(j, outer.root, outer.base, inner.root, inner.base); err != nil {
			return nil, nil //nolint:nilerr
		}
	}

	// Everything above the join: secondaries plus hoisted selections, in
	// ascending rank order (bottom first).
	above := md.appendSecondaries(c.take(len(md.conns) + len(hoistOut) + len(hoistIn)))
	above = append(append(above, hoistOut...), hoistIn...)
	o.sortByRank(above, j.EstCard)
	root := c.chain(j, above)
	if err := o.model.AnnotateAbove(root, j); err != nil {
		return nil, err
	}

	buried := outer.buried | inner.buried
	for _, chain := range [2][]*query.Predicate{keepOut, keepIn} {
		for _, p := range chain {
			buried |= o.skel.buriedBit[p.ID] // zero for cheap predicates
		}
	}
	c.sp = subplan{
		root: root, base: j, chain: above,
		set: outer.set | inner.set, order: order,
		cost: root.Cost(), card: root.Card(), buried: buried,
	}
	return &c.sp, nil
}

// chooseHoists decides which expensive selections to pull above the join,
// per the configured algorithm, appending them to hoistOut and hoistIn.
// Inner pullup is decided first (§5.2).
func (o *Optimizer) chooseHoists(j *plan.Join, outer, inner *subplan, hoistOut, hoistIn []*query.Predicate) ([]*query.Predicate, []*query.Predicate) {
	switch o.opts.Algorithm {
	case NaivePushDown, PushDown:
		return hoistOut, hoistIn
	case PullUp:
		return appendExpensive(hoistOut, outer.chain), appendExpensive(hoistIn, inner.chain)
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

// appendExpensive appends the expensive predicates of preds to dst.
func appendExpensive(dst, preds []*query.Predicate) []*query.Predicate {
	for _, p := range preds {
		if p.IsExpensive() {
			dst = append(dst, p)
		}
	}
	return dst
}

// appendSubtract appends preds minus remove to dst, preserving order.
func appendSubtract(dst, preds, remove []*query.Predicate) []*query.Predicate {
	for _, p := range preds {
		if !slices.Contains(remove, p) {
			dst = append(dst, p)
		}
	}
	return dst
}
