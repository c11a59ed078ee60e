// Package optimizer implements a System R-style query optimizer with the
// paper's family of expensive-predicate placement algorithms: PushDown+ (with
// rank ordering), PullUp, PullRank, Predicate Migration (with unpruneable
// subplan retention), LDL (selections as virtual joins over left-deep trees),
// and an Exhaustive oracle.
package optimizer

import (
	"encoding/binary"
	"fmt"

	"predplace/internal/plan"
	"predplace/internal/query"
)

// FlatStep is one join step of a left-deep plan: the join itself, the
// selections applied below it on the inner side, and the selections applied
// directly above it (before the next join).
type FlatStep struct {
	Method        plan.JoinMethod
	Primary       *query.Predicate // nil = cross product (NestLoop only)
	Inner         plan.Node        // inner access path, no filters
	InnerTable    string
	InnerIndexCol string
	SortOuter     bool
	SortInner     bool
	// InnerFilters apply to the inner base table below the join, bottom first.
	InnerFilters []*query.Predicate
	// AfterFilters apply to the join's output, bottom first.
	AfterFilters []*query.Predicate
}

// FlatPlan is the flattened form of a left-deep plan tree. It is the working
// representation of the Predicate Migration algorithm (which moves
// predicates between the filter lists), the LDL rewriting, and the
// exhaustive oracle.
type FlatPlan struct {
	Base      plan.Node // outermost access path, no filters
	BaseTable string
	// BaseFilters apply to the base table before the first join, bottom first.
	BaseFilters []*query.Predicate
	Steps       []*FlatStep
}

// Flatten decomposes a left-deep plan tree. It errors on bushy trees.
func Flatten(root plan.Node) (*FlatPlan, error) {
	chain, node := plan.TopFilters(root)
	switch t := node.(type) {
	case *plan.Join:
		f, err := Flatten(t.Outer)
		if err != nil {
			return nil, err
		}
		innerChain, innerBase := plan.TopFilters(t.Inner)
		if _, isJoin := innerBase.(*plan.Join); isJoin {
			return nil, fmt.Errorf("optimizer: plan is not left-deep")
		}
		innerTable, _, _ := plan.BaseTable(innerBase)
		step := &FlatStep{
			Method:        t.Method,
			Primary:       t.Primary,
			Inner:         innerBase,
			InnerTable:    innerTable,
			InnerIndexCol: t.InnerIndexCol,
			SortOuter:     t.SortOuter,
			SortInner:     t.SortInner,
			InnerFilters:  bottomFirst(innerChain),
			AfterFilters:  bottomFirst(chain),
		}
		f.Steps = append(f.Steps, step)
		return f, nil
	case *plan.SeqScan, *plan.IndexScan:
		table, _, _ := plan.BaseTable(node)
		return &FlatPlan{
			Base:        node,
			BaseTable:   table,
			BaseFilters: bottomFirst(chain),
		}, nil
	default:
		return nil, fmt.Errorf("optimizer: cannot flatten node %T", node)
	}
}

// bottomFirst converts a TopFilters chain (outermost first) to a bottom-first
// predicate list.
func bottomFirst(chain []*plan.Filter) []*query.Predicate {
	out := make([]*query.Predicate, len(chain))
	for i, f := range chain {
		out[len(chain)-1-i] = f.Pred
	}
	return out
}

// chainFilters wraps node in fresh Filter nodes applying preds bottom-first.
func chainFilters(node plan.Node, preds []*query.Predicate) plan.Node {
	for _, p := range preds {
		node = &plan.Filter{Input: node, Pred: p}
	}
	return node
}

// Tree rebuilds the plan tree (with fresh Filter and Join nodes; access-path
// leaves are shared). Cost annotations and join column lists are not filled;
// run Annotate, and plan.FillCols on a tree that leaves the planner.
func (f *FlatPlan) Tree() plan.Node {
	cur := chainFilters(f.Base, f.BaseFilters)
	for _, s := range f.Steps {
		inner := chainFilters(s.Inner, s.InnerFilters)
		j := &plan.Join{
			Method:           s.Method,
			Outer:            cur,
			Inner:            inner,
			Primary:          s.Primary,
			InnerIndexCol:    s.InnerIndexCol,
			ExpensivePrimary: s.Primary != nil && s.Primary.IsExpensive(),
			SortOuter:        s.SortOuter,
			SortInner:        s.SortInner,
		}
		cur = chainFilters(j, s.AfterFilters)
	}
	return cur
}

// signature encodes the plan's predicate placement for cycle detection:
// each filter list as its length, then its predicate IDs.
func (f *FlatPlan) signature() string {
	var b []byte
	app := func(preds []*query.Predicate) {
		b = binary.AppendUvarint(b, uint64(len(preds)))
		for _, p := range preds {
			b = binary.AppendUvarint(b, uint64(p.ID))
		}
	}
	app(f.BaseFilters)
	for _, s := range f.Steps {
		app(s.InnerFilters)
		app(s.AfterFilters)
	}
	return string(b)
}

// homeStep returns the smallest step index j such that predicate p can be
// evaluated at or above step j's join: all tables p references are available
// in {base, inner(0..j)}. It returns -1 when p only references the base
// table (p may sit below every join) and -2 with ok=false when p references
// a table not in the plan.
func (f *FlatPlan) homeStep(p *query.Predicate) (int, bool) {
	pos := map[string]int{f.BaseTable: -1}
	for i, s := range f.Steps {
		pos[s.InnerTable] = i
	}
	home := -1
	for _, t := range p.Tables {
		j, ok := pos[t]
		if !ok {
			return -2, false
		}
		if j > home {
			home = j
		}
	}
	return home, true
}

// joinNodes returns the annotated tree's join nodes in step order; tree must
// have been produced by f.Tree() (same shape).
func joinNodes(root plan.Node) []*plan.Join {
	var out []*plan.Join
	_, node := plan.TopFilters(root)
	for {
		j, ok := node.(*plan.Join)
		if !ok {
			break
		}
		out = append(out, j)
		_, node = plan.TopFilters(j.Outer)
	}
	// Collected root-first; reverse to step order.
	for i, k := 0, len(out)-1; i < k; i, k = i+1, k-1 {
		out[i], out[k] = out[k], out[i]
	}
	return out
}
