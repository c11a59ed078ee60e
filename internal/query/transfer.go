package query

import (
	"sort"

	"predplace/internal/expr"
)

// What predicate transfer (DESIGN.md §16) reads off a query's predicates.
// The optimizer's estimate (cost.ComputeTransfer) and the executor's prepass
// both derive the classes and the local predicates here, so the estimate
// cannot describe a prepass other than the one that runs.

// JoinKeyClasses returns the join-key equivalence classes of preds: the
// transitive closure of its two-table equality join predicates, keeping the
// classes that span two or more tables. Every column of a class is equal in
// every output row. Members are sorted by their table.col rendering and
// classes by their first member: a deterministic identity for each class.
func JoinKeyClasses(preds []*Predicate) [][]ColRef {
	parent := map[ColRef]ColRef{}
	var find func(ColRef) ColRef
	find = func(x ColRef) ColRef {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	for _, p := range preds {
		if p.Kind == KindJoinCmp && p.Op == expr.OpEQ && len(p.Tables) == 2 {
			if ra, rb := find(p.Left), find(p.Right); ra != rb {
				parent[rb] = ra
			}
		}
	}
	groups := map[ColRef][]ColRef{}
	for c := range parent {
		r := find(c)
		groups[r] = append(groups[r], c)
	}
	var classes [][]ColRef
	for _, members := range groups {
		tables := map[string]bool{}
		for _, m := range members {
			tables[m.Table] = true
		}
		if len(tables) < 2 {
			continue
		}
		sort.Slice(members, func(i, j int) bool { return members[i].String() < members[j].String() })
		classes = append(classes, members)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0].String() < classes[j][0].String() })
	return classes
}

// TransferLocal reports whether the transfer prepass applies the
// single-table predicate p to its table's rows before they seed a filter:
// cheap comparisons always; an expensive function only when it is cacheable
// and caching is on, so that the prepass's invocations warm the entries the
// main plan will hit and the work is paid once.
func (p *Predicate) TransferLocal(caching bool) bool {
	switch p.Kind {
	case KindSelCmp:
		return true
	case KindFunc:
		return caching && p.Func != nil && p.Func.Cacheable
	default: // join predicates are not local
		return false
	}
}
