// Package plan defines physical query plan trees: scans, filters, and joins
// with their chosen methods, annotated with estimated cardinalities and
// cumulative costs. Plans are produced by the optimizer, costed by the cost
// package, rendered for EXPLAIN output (the paper's Figures 1, 2, 6, 7 are
// plan trees), and interpreted by the executor.
package plan

import (
	"fmt"
	"strings"

	"predplace/internal/expr"
	"predplace/internal/query"
)

// JoinMethod identifies the physical join algorithm.
type JoinMethod uint8

// Join methods. The linear cost model of the paper (§3.2) covers all of
// them; unindexed nested loop folds its |S|-pages term into the per-outer
// constant.
const (
	NestLoop JoinMethod = iota + 1
	IndexNestLoop
	MergeJoin
	HashJoin
)

// String names the method as shown in EXPLAIN output.
func (m JoinMethod) String() string {
	switch m {
	case NestLoop:
		return "NestLoop"
	case IndexNestLoop:
		return "IndexNestLoop"
	case MergeJoin:
		return "MergeJoin"
	case HashJoin:
		return "HashJoin"
	}
	return "?"
}

// Node is a physical plan operator.
type Node interface {
	// Cols lists the output columns in row order.
	Cols() []query.ColRef
	// Children returns the input operators (outer first for joins).
	Children() []Node
	// Card is the estimated output cardinality in tuples.
	Card() float64
	// Cost is the estimated cumulative cost in random-I/O units.
	Cost() float64
	// Describe renders a one-line operator description.
	Describe() string
}

// SeqScan reads every tuple of a base table in heap order.
type SeqScan struct {
	Table   string
	ColRefs []query.ColRef
	// TransferRecv lists the join-key columns for which this scan probes a
	// received predicate-transfer Bloom filter (sorted; nil when transfer is
	// off), and TransferSel is the estimated combined selectivity of those
	// probes. Set by the cost model's annotation under Model.Transfer.
	TransferRecv []string
	TransferSel  float64
	EstCard      float64
	EstCost      float64
}

// Cols implements Node.
func (s *SeqScan) Cols() []query.ColRef { return s.ColRefs }

// Children implements Node.
func (s *SeqScan) Children() []Node { return nil }

// Card implements Node.
func (s *SeqScan) Card() float64 { return s.EstCard }

// Cost implements Node.
func (s *SeqScan) Cost() float64 { return s.EstCost }

// Describe implements Node.
func (s *SeqScan) Describe() string {
	if len(s.TransferRecv) > 0 {
		return fmt.Sprintf("SeqScan %s bloom(%s sel=%.3f)",
			s.Table, strings.Join(s.TransferRecv, ","), s.TransferSel)
	}
	return fmt.Sprintf("SeqScan %s", s.Table)
}

// IndexScan reads tuples of a base table via a B-tree, optionally restricted
// to an equality value or a [Lo,Hi] range; output is ordered by Col.
type IndexScan struct {
	Table   string
	Col     string
	Eq      *expr.Value // equality probe, or nil
	Lo, Hi  *expr.Value // range bounds (either may be nil)
	Matched *query.Predicate
	ColRefs []query.ColRef
	// TransferRecv and TransferSel mirror SeqScan's: received transfer
	// filters probed on fetched rows, and their combined selectivity.
	TransferRecv []string
	TransferSel  float64
	EstCard      float64
	EstCost      float64
}

// Cols implements Node.
func (s *IndexScan) Cols() []query.ColRef { return s.ColRefs }

// Children implements Node.
func (s *IndexScan) Children() []Node { return nil }

// Card implements Node.
func (s *IndexScan) Card() float64 { return s.EstCard }

// Cost implements Node.
func (s *IndexScan) Cost() float64 { return s.EstCost }

// Describe implements Node.
func (s *IndexScan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IndexScan %s.%s", s.Table, s.Col)
	switch {
	case s.Eq != nil:
		fmt.Fprintf(&b, " = %s", *s.Eq)
	case s.Lo != nil || s.Hi != nil:
		b.WriteString(" range")
		if s.Lo != nil {
			fmt.Fprintf(&b, " >= %s", *s.Lo)
		}
		if s.Hi != nil {
			fmt.Fprintf(&b, " <= %s", *s.Hi)
		}
	}
	if len(s.TransferRecv) > 0 {
		fmt.Fprintf(&b, " bloom(%s sel=%.3f)", strings.Join(s.TransferRecv, ","), s.TransferSel)
	}
	return b.String()
}

// Filter applies one predicate to its input stream. Expensive predicates are
// each a separate Filter node so the migration algorithm can move them
// individually.
type Filter struct {
	Input   Node
	Pred    *query.Predicate
	EstCard float64
	EstCost float64
}

// Cols implements Node.
func (f *Filter) Cols() []query.ColRef { return f.Input.Cols() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Input} }

// Card implements Node.
func (f *Filter) Card() float64 { return f.EstCard }

// Cost implements Node.
func (f *Filter) Cost() float64 { return f.EstCost }

// Describe implements Node.
func (f *Filter) Describe() string {
	kind := "Filter"
	if f.Pred.IsExpensive() {
		kind = "Filter*" // expensive predicate
	}
	return fmt.Sprintf("%s %s (cost=%.1f sel=%.3f)", kind, f.Pred, f.Pred.CostPerTuple, f.Pred.Selectivity)
}

// Join combines an outer and inner input with the given method. Primary is
// the join predicate intrinsic to the method (index match, sort/hash
// attribute, or — for predicate-only joins — the chosen minimal-rank
// predicate); Secondary predicates ride along as Filter nodes above.
type Join struct {
	Method JoinMethod
	Outer  Node
	Inner  Node
	// Primary is the primary join predicate (§2: every join has at least one).
	Primary *query.Predicate
	// InnerIndexCol names the inner index column for IndexNestLoop.
	InnerIndexCol string
	// ExpensivePrimary marks joins whose primary predicate has non-trivial
	// per-pair cost (breaks the linear cost model, §3.2 end).
	ExpensivePrimary bool
	// SortOuter and SortInner mark merge-join inputs that must be sorted
	// first (an input arriving in an interesting order skips its sort).
	SortOuter bool
	SortInner bool
	ColRefs   []query.ColRef
	EstCard   float64
	EstCost   float64
}

// Cols implements Node.
func (j *Join) Cols() []query.ColRef { return j.ColRefs }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Outer, j.Inner} }

// Card implements Node.
func (j *Join) Card() float64 { return j.EstCard }

// Cost implements Node.
func (j *Join) Cost() float64 { return j.EstCost }

// Describe implements Node.
func (j *Join) Describe() string {
	extra := ""
	if j.ExpensivePrimary {
		extra = " [expensive primary]"
	}
	return fmt.Sprintf("%s on %s%s", j.Method, j.Primary, extra)
}

// ConcatCols builds a join's output column list (outer then inner).
func ConcatCols(outer, inner Node) []query.ColRef {
	oc, ic := outer.Cols(), inner.Cols()
	out := make([]query.ColRef, 0, len(oc)+len(ic))
	out = append(out, oc...)
	out = append(out, ic...)
	return out
}

// FillCols stores the output column list on every join of the tree that has
// none yet. Planners leave Join.ColRefs nil on the candidates they enumerate
// — nothing reads a candidate's columns — and fill the plan they return; a
// join that already has its list has it on every join below, too.
func FillCols(n Node) {
	j, isJoin := n.(*Join)
	if isJoin && j.ColRefs != nil {
		return
	}
	for _, c := range n.Children() {
		FillCols(c)
	}
	if isJoin {
		j.ColRefs = ConcatCols(j.Outer, j.Inner)
	}
}

// ColIndex locates a column in a node's output, or -1.
func ColIndex(n Node, ref query.ColRef) int {
	for i, c := range n.Cols() {
		if c == ref {
			return i
		}
	}
	return -1
}

// Render draws the plan tree with indentation, annotated with estimated
// cardinality and cumulative cost; the textual analog of the paper's
// plan-tree figures.
func Render(n Node) string {
	return RenderWith(n, nil)
}

// RenderWith draws the plan tree with an extra per-node annotation (used by
// EXPLAIN ANALYZE to print actual row counts next to the estimates — the
// estimated-vs-measured comparison the paper used to debug its optimizer).
func RenderWith(n Node, annotate func(Node) string) string {
	var b strings.Builder
	render(&b, n, 0, annotate)
	return b.String()
}

func render(b *strings.Builder, n Node, depth int, annotate func(Node) string) {
	b.WriteString(strings.Repeat("  ", depth))
	extra := ""
	if annotate != nil {
		extra = annotate(n)
	}
	fmt.Fprintf(b, "%s  (card=%.0f cost=%.0f%s)\n", n.Describe(), n.Card(), n.Cost(), extra)
	for _, c := range n.Children() {
		render(b, c, depth+1, annotate)
	}
}

// TopFilters returns the maximal chain of Filter nodes at the root of n
// (outermost first) and the first non-Filter node beneath them.
func TopFilters(n Node) ([]*Filter, Node) {
	var chain []*Filter
	for {
		f, ok := n.(*Filter)
		if !ok {
			return chain, n
		}
		chain = append(chain, f)
		n = f.Input
	}
}

// Base returns the base-table scan n is, or is a chain of Filter nodes over
// — a *SeqScan or an *IndexScan — and nil if the subtree is anything else
// (e.g. a join). It allocates nothing; BaseTable and BaseTableNodes report
// what lies along this descent.
func Base(n Node) Node {
	for {
		switch t := n.(type) {
		case *Filter:
			n = t.Input
		case *SeqScan, *IndexScan:
			return n
		default:
			return nil
		}
	}
}

// BaseTable descends through Filter nodes to find the underlying base-table
// scan; ok is false if the subtree is not a filtered base scan (e.g. a join).
// The index-nested-loop executor uses this to drive probes on the inner.
func BaseTable(n Node) (table string, filters []*query.Predicate, ok bool) {
	if table, ok = ScanTable(n); !ok {
		return "", nil, false
	}
	BaseFilters(n, func(p *query.Predicate) { filters = append(filters, p) })
	return table, filters, true
}

// ScanTable is BaseTable's table alone: the table of the base-table scan n
// is, or is a chain of Filter nodes over.
func ScanTable(n Node) (string, bool) {
	switch base := Base(n).(type) {
	case *SeqScan:
		return base.Table, true
	case *IndexScan:
		return base.Table, true
	}
	return "", false
}

// BaseFilters calls visit with each of BaseTable's filters of a (filtered)
// base-table scan, in BaseTable's order — the Filter chain outermost first,
// then an index scan's Matched predicate — without collecting them: the
// cost model walks a nested loop's inner with it once per candidate join.
func BaseFilters(n Node, visit func(*query.Predicate)) {
	for {
		switch t := n.(type) {
		case *Filter:
			visit(t.Pred)
			n = t.Input
		case *IndexScan:
			if t.Matched != nil {
				visit(t.Matched)
			}
			return
		default:
			return
		}
	}
}

// BaseTableNodes descends exactly like BaseTable but reports plan nodes: the
// base scan and, aligned one-to-one with BaseTable's filters slice, the node
// whose output each filter's survivors constitute (the Filter node itself;
// the IndexScan for its own Matched predicate). The profiler uses this to
// attribute an index-nested-loop's probe-driven inner chain — whose nodes
// are never built as iterators — back to the plan tree.
func BaseTableNodes(n Node) (base Node, predNodes []Node, ok bool) {
	if base = Base(n); base == nil {
		return nil, nil, false
	}
	for f, more := n.(*Filter); more; f, more = f.Input.(*Filter) {
		predNodes = append(predNodes, f)
	}
	if ix, indexed := base.(*IndexScan); indexed && ix.Matched != nil {
		predNodes = append(predNodes, ix)
	}
	return base, predNodes, true
}

// Walk visits every node of the subtree pre-order (parents before children,
// outer before inner).
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// HasTable reports whether the subtree scans table t, as Tables(n)[t] would,
// without building the set.
func HasTable(n Node, t string) bool {
	switch x := n.(type) {
	case *SeqScan:
		return x.Table == t
	case *IndexScan:
		return x.Table == t
	case *Filter:
		return HasTable(x.Input, t)
	case *Join:
		return HasTable(x.Outer, t) || HasTable(x.Inner, t)
	}
	for _, c := range n.Children() {
		if HasTable(c, t) {
			return true
		}
	}
	return false
}

// Tables returns the set of base tables referenced by the subtree.
func Tables(n Node) map[string]bool {
	out := map[string]bool{}
	var walk func(Node)
	walk = func(m Node) {
		switch t := m.(type) {
		case *SeqScan:
			out[t.Table] = true
		case *IndexScan:
			out[t.Table] = true
		}
		for _, c := range m.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// CollectFilters returns every Filter node in the subtree.
func CollectFilters(n Node) []*Filter {
	var out []*Filter
	var walk func(Node)
	walk = func(m Node) {
		if f, ok := m.(*Filter); ok {
			out = append(out, f)
		}
		for _, c := range m.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}
