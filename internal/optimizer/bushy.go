package optimizer

import (
	"fmt"
	"math/bits"
	"sort"

	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// This file implements the bushy-tree exhaustive oracle — the extension
// §3.1 sketches for repairing LDL ("a System R optimizer can be modified to
// explore the space of bushy trees, but this increases the complexity yet
// further"). Nested-loop and index-nested-loop joins still require a
// base-table inner (footnote 3: one would sort or hash a materialized bushy
// inner anyway); hash and merge joins accept any inner.
//
// The DP state is (relation subset, set of expensive selections already
// applied): after each join, any subset of the now-coverable expensive
// selections may be applied immediately or deferred, which covers every
// placement a bushy tree admits.

// bushyState is one DP cell: which relations are joined and which expensive
// selections have been applied somewhere inside the subtree.
type bushyState struct {
	set     uint32
	applied uint32
}

// bushyEntry is one retained plan for a state.
type bushyEntry struct {
	root  plan.Node
	order query.ColRef
	cost  float64
}

// bushySearch carries the enumeration's working state.
type bushySearch struct {
	o      *Optimizer
	q      *query.Query
	exp    []*query.Predicate
	expBit map[*query.Predicate]uint32
	table  map[bushyState][]bushyEntry
}

func (o *Optimizer) planExhaustiveBushy(q *query.Query) (plan.Node, *Info, error) {
	n := len(q.Tables)
	if n > 7 {
		return nil, nil, fmt.Errorf("optimizer: bushy enumeration over %d tables is too large", n)
	}
	s := &bushySearch{o: o, q: q, expBit: map[*query.Predicate]uint32{}, table: map[bushyState][]bushyEntry{}}
	for _, p := range q.Preds {
		if p.IsExpensive() && !p.IsJoin() {
			s.expBit[p] = 1 << uint(len(s.exp))
			s.exp = append(s.exp, p)
		}
	}
	if len(s.exp) > 4 {
		return nil, nil, fmt.Errorf("optimizer: bushy enumeration over %d expensive selections is too large", len(s.exp))
	}

	// Base relations.
	for i := range q.Tables {
		paths, err := o.accessPathsPlace(q, i, false)
		if err != nil {
			return nil, nil, err
		}
		for _, sp := range paths {
			if err := s.applyVariants(sp.set, 0, sp.root, sp.order); err != nil {
				return nil, nil, err
			}
		}
	}

	full := uint32(1)<<uint(n) - 1
	for set := uint32(1); set <= full; set++ {
		if bits.OnesCount32(set) < 2 {
			continue
		}
		for sub := (set - 1) & set; sub > 0; sub = (sub - 1) & set {
			other := set &^ sub
			if other == 0 {
				continue
			}
			for _, ls := range s.statesFor(sub) {
				for _, rs := range s.statesFor(other) {
					for _, le := range s.table[ls] {
						for _, re := range s.table[rs] {
							if err := s.joins(set, other, ls.applied|rs.applied, le, re); err != nil {
								return nil, nil, err
							}
						}
					}
				}
			}
		}
	}

	allApplied := uint32(1)<<uint(len(s.exp)) - 1
	finals := s.table[bushyState{set: full, applied: allApplied}]
	if len(finals) == 0 {
		return nil, nil, fmt.Errorf("optimizer: bushy search found no plan")
	}
	best := finals[0]
	for _, e := range finals[1:] {
		if e.cost < best.cost {
			best = e
		}
	}
	info := &Info{}
	for _, list := range s.table {
		info.PlansRetained += len(list)
	}
	return best.root, info, nil
}

// statesFor lists the DP states covering a relation subset, in a
// deterministic order.
func (s *bushySearch) statesFor(set uint32) []bushyState {
	var out []bushyState
	for st := range s.table {
		if st.set == set {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].applied < out[b].applied })
	return out
}

func (s *bushySearch) addEntry(st bushyState, e bushyEntry) {
	list := s.table[st]
	for i, cur := range list {
		if cur.order == e.order {
			if e.cost < cur.cost {
				list[i] = e
			}
			return
		}
	}
	s.table[st] = append(list, e)
}

// homeSet returns the relation bitset a predicate needs.
func (s *bushySearch) homeSet(p *query.Predicate) uint32 {
	var out uint32
	for _, t := range p.Tables {
		out |= 1 << uint(tableIndex(s.q, t))
	}
	return out
}

// applyVariants layers every allowed subset of pending expensive selections
// on top of root, registering one DP entry per variant.
func (s *bushySearch) applyVariants(set, applied uint32, root plan.Node, order query.ColRef) error {
	var eligible []*query.Predicate
	for _, p := range s.exp {
		if applied&s.expBit[p] == 0 && s.homeSet(p)&^set == 0 {
			eligible = append(eligible, p)
		}
	}
	for mask := 0; mask < 1<<uint(len(eligible)); mask++ {
		var chosen []*query.Predicate
		add := uint32(0)
		for i, p := range eligible {
			if mask&(1<<uint(i)) != 0 {
				chosen = append(chosen, p)
				add |= s.expBit[p]
			}
		}
		cur := chainFilters(root, s.o.orderByRank(chosen, root.Card()))
		if err := s.o.model.AnnotateAbove(cur, root); err != nil {
			return err
		}
		s.addEntry(bushyState{set: set, applied: applied | add},
			bushyEntry{root: cur, order: order, cost: cur.Cost()})
	}
	return nil
}

// joins builds every join of two entries and registers the variants.
func (s *bushySearch) joins(set, rightSet, applied uint32, le, re bushyEntry) error {
	q := s.q
	conns := connectingBetween(q, set&^rightSet, rightSet)

	type method struct {
		m        plan.JoinMethod
		primary  *query.Predicate
		indexCol string
	}
	var methods []method
	innerTable, innerIsBase := plan.ScanTable(re.root)
	for _, p := range conns {
		if p.Kind == query.KindJoinCmp && p.Op == expr.OpEQ && !p.IsExpensive() {
			methods = append(methods,
				method{m: plan.HashJoin, primary: p},
				method{m: plan.MergeJoin, primary: p})
			if innerIsBase {
				innerRef, _ := sides(p, innerTable)
				if s.o.skel.table(innerTable).HasIndex(innerRef.Col) {
					methods = append(methods, method{m: plan.IndexNestLoop, primary: p, indexCol: innerRef.Col})
				}
			}
		}
	}
	if innerIsBase {
		methods = append(methods, method{m: plan.NestLoop, primary: minRankPred(s.o.model, conns)})
	}
	// Cross products of composites are skipped: hash/merge need an equality
	// predicate and NL needs a base inner; a left-deep shape covers those.

	for _, md := range methods {
		j := &plan.Join{
			Method:           md.m,
			Outer:            le.root,
			Inner:            re.root,
			Primary:          md.primary,
			InnerIndexCol:    md.indexCol,
			ExpensivePrimary: md.primary != nil && md.primary.IsExpensive(),
		}
		var order query.ColRef
		if md.m == plan.MergeJoin {
			innerTables := plan.Tables(re.root)
			innerRef, outerRef := md.primary.Left, md.primary.Right
			if !innerTables[innerRef.Table] {
				innerRef, outerRef = outerRef, innerRef
			}
			j.SortOuter = le.order != outerRef
			j.SortInner = re.order != innerRef
			order = outerRef
		} else {
			order = le.order
		}
		var above []*query.Predicate
		for _, p := range conns {
			if p != md.primary {
				above = append(above, p)
			}
		}
		root := chainFilters(j, s.o.orderByRank(above, 0))
		if err := s.o.model.AnnotateAbove(root, le.root, re.root); err != nil {
			continue // invalid shape for this method
		}
		if err := s.applyVariants(set, applied, root, order); err != nil {
			return err
		}
	}
	return nil
}

// connectingBetween returns join predicates spanning exactly the two subsets.
func connectingBetween(q *query.Query, left, right uint32) []*query.Predicate {
	inSet := func(t string, set uint32) bool {
		i := tableIndex(q, t)
		return i >= 0 && set&(1<<uint(i)) != 0
	}
	var out []*query.Predicate
	for _, p := range q.Preds {
		if !p.IsJoin() {
			continue
		}
		touchL, touchR, outside := false, false, false
		for _, t := range p.Tables {
			switch {
			case inSet(t, left):
				touchL = true
			case inSet(t, right):
				touchR = true
			default:
				outside = true
			}
		}
		if touchL && touchR && !outside {
			out = append(out, p)
		}
	}
	return out
}
