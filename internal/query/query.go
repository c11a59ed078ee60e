// Package query defines the logical representation of a conjunctive query —
// tables, predicates (cheap comparisons, expensive user-defined function
// predicates, join predicates) — and the statistics-driven analysis that
// annotates each predicate with its per-tuple cost and selectivity, the two
// inputs to the paper's rank metric.
package query

import (
	"fmt"
	"sort"
	"strings"

	"predplace/internal/catalog"
	"predplace/internal/expr"
)

// ColRef names a column of a query table.
type ColRef struct {
	Table string
	Col   string
}

// String renders the reference as table.col.
func (c ColRef) String() string { return c.Table + "." + c.Col }

// PredKind classifies a predicate.
type PredKind uint8

// Predicate kinds.
const (
	// KindSelCmp is a simple selection `col op constant` (zero cost).
	KindSelCmp PredKind = iota + 1
	// KindJoinCmp is a comparison between columns of two tables.
	KindJoinCmp
	// KindFunc is a (possibly expensive) boolean function over columns; when
	// the argument columns span two tables it acts as a join predicate.
	KindFunc
)

// Predicate is one conjunct of the WHERE clause.
type Predicate struct {
	// ID uniquely identifies the predicate within its query.
	ID int
	// Kind classifies the predicate.
	Kind PredKind

	// Op, Left and (Right|Value) describe comparison predicates.
	Op    expr.CmpOp
	Left  ColRef
	Right ColRef     // KindJoinCmp
	Value expr.Value // KindSelCmp

	// Func and Args describe function predicates.
	Func *expr.FuncDef
	Args []ColRef

	// Tables is the sorted, deduplicated set of tables referenced.
	Tables []string

	// CostPerTuple and Selectivity are filled by Analyze from catalog
	// statistics and function metadata. CostPerTuple is in random-I/O units.
	CostPerTuple float64
	Selectivity  float64
}

// IsJoin reports whether the predicate references more than one table.
func (p *Predicate) IsJoin() bool { return len(p.Tables) > 1 }

// IsExpensive reports whether the predicate has non-trivial per-tuple cost
// (the paper's threshold for "expensive" is anything costlier than a simple
// attribute comparison; we use any strictly positive declared cost).
func (p *Predicate) IsExpensive() bool { return p.CostPerTuple > 0 }

// References reports whether the predicate mentions table t.
func (p *Predicate) References(t string) bool {
	for _, x := range p.Tables {
		if x == t {
			return true
		}
	}
	return false
}

// CoveredBy reports whether every table the predicate references is in the
// given set.
func (p *Predicate) CoveredBy(set map[string]bool) bool {
	for _, x := range p.Tables {
		if !set[x] {
			return false
		}
	}
	return true
}

// Cols appends to dst the columns the predicate reads of its input row —
// Left, then Right, of a comparison; the Args of a function — and returns
// the extended slice; for an unknown kind, dst as it came. It is the one
// statement of what a predicate needs: the executor resolves these to row
// positions (compilePred) and a scan that decodes late decodes these ahead
// of it (thinScans).
func (p *Predicate) Cols(dst []ColRef) []ColRef {
	switch p.Kind {
	case KindSelCmp:
		return append(dst, p.Left)
	case KindJoinCmp:
		return append(dst, p.Left, p.Right)
	case KindFunc:
		return append(dst, p.Args...)
	}
	return dst
}

// String renders the predicate as SQL-ish text.
func (p *Predicate) String() string {
	switch p.Kind {
	case KindSelCmp:
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Value)
	case KindJoinCmp:
		return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
	case KindFunc:
		args := make([]string, len(p.Args))
		for i, a := range p.Args {
			args[i] = a.String()
		}
		return fmt.Sprintf("%s(%s)", p.Func.Name, strings.Join(args, ", "))
	}
	return "?"
}

// Rank returns the paper's ordering metric (selectivity − 1) / cost.
// Zero-cost predicates get -Inf (apply as early as possible) unless their
// selectivity is ≥ 1, in which case +Inf (never beneficial to apply early).
func (p *Predicate) Rank() float64 {
	return Rank(p.Selectivity, p.CostPerTuple)
}

// Rank computes (selectivity−1)/cost with the conventional limits at cost=0.
func Rank(sel, cost float64) float64 {
	if cost <= 0 {
		if sel >= 1 {
			return inf
		}
		return -inf
	}
	return (sel - 1) / cost
}

const inf = 1e308 // finite stand-in for ±infinity keeps arithmetic total

// Query is a conjunctive SELECT–FROM–WHERE query over named tables.
type Query struct {
	// Tables lists the FROM-clause tables (no duplicates).
	Tables []string
	// Preds are the WHERE-clause conjuncts.
	Preds []*Predicate
}

// NewQuery builds a query and assigns predicate IDs and table sets.
func NewQuery(tables []string, preds []*Predicate) (*Query, error) {
	seen := map[string]bool{}
	for _, t := range tables {
		if seen[t] {
			return nil, fmt.Errorf("query: duplicate table %q", t)
		}
		seen[t] = true
	}
	for i, p := range preds {
		p.ID = i
		p.Tables = referencedTables(p)
		for _, t := range p.Tables {
			if !seen[t] {
				return nil, fmt.Errorf("query: predicate %s references unknown table %q", p, t)
			}
		}
	}
	return &Query{Tables: append([]string(nil), tables...), Preds: preds}, nil
}

func referencedTables(p *Predicate) []string {
	set := map[string]bool{}
	switch p.Kind {
	case KindSelCmp:
		set[p.Left.Table] = true
	case KindJoinCmp:
		set[p.Left.Table] = true
		set[p.Right.Table] = true
	case KindFunc:
		for _, a := range p.Args {
			set[a.Table] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// SelectionsOn returns the non-join predicates over table t.
func (q *Query) SelectionsOn(t string) []*Predicate {
	var out []*Predicate
	for _, p := range q.Preds {
		if !p.IsJoin() && p.References(t) {
			out = append(out, p)
		}
	}
	return out
}

// JoinPreds returns all predicates referencing more than one table.
func (q *Query) JoinPreds() []*Predicate {
	var out []*Predicate
	for _, p := range q.Preds {
		if p.IsJoin() {
			out = append(out, p)
		}
	}
	return out
}

// HasExpensivePreds reports whether any predicate carries non-trivial cost.
func (q *Query) HasExpensivePreds() bool {
	for _, p := range q.Preds {
		if p.IsExpensive() {
			return true
		}
	}
	return false
}

// Analyze fills CostPerTuple and Selectivity on every predicate using
// catalog statistics and function metadata (the paper's "system metadata").
func Analyze(cat *catalog.Catalog, q *Query) error {
	for _, p := range q.Preds {
		switch p.Kind {
		case KindSelCmp:
			sel, err := cmpSelectivity(cat, p.Left, p.Op, p.Value)
			if err != nil {
				return err
			}
			p.Selectivity, p.CostPerTuple = sel, 0
		case KindJoinCmp:
			sel, err := joinSelectivity(cat, p.Left, p.Right, p.Op)
			if err != nil {
				return err
			}
			p.Selectivity, p.CostPerTuple = sel, 0
		case KindFunc:
			if p.Func == nil {
				return fmt.Errorf("query: function predicate %d has no function", p.ID)
			}
			p.Selectivity, p.CostPerTuple = p.Func.Selectivity, p.Func.Cost
		}
	}
	return nil
}

// ApplyFeedback overlays promoted feedback observations onto an analyzed
// query: a comparison or join predicate whose rendered fingerprint has an
// applied observed selectivity uses it ahead of the histogram/default guess
// Analyze just filled in. Function predicates are deliberately skipped —
// their refreshed metadata lives on the re-registered FuncDef, which Analyze
// already read (feedback promotion bumps the catalog version, so every
// cached plan re-binds against the refreshed definition).
func ApplyFeedback(fb *catalog.FeedbackStore, q *Query) {
	if fb == nil {
		return
	}
	for _, p := range q.Preds {
		if p.Kind == KindFunc {
			continue
		}
		if sel, ok := fb.AppliedSel(p.String()); ok {
			p.Selectivity = sel
		}
	}
}

// cmpSelectivity estimates the fraction of tuples satisfying col op value,
// System R style: 1/distinct for equality, interpolation on [min,max] for
// ranges, with the classic fallback constants.
func cmpSelectivity(cat *catalog.Catalog, ref ColRef, op expr.CmpOp, v expr.Value) (float64, error) {
	tab, err := cat.Table(ref.Table)
	if err != nil {
		return 0, err
	}
	col, err := tab.Column(ref.Col)
	if err != nil {
		return 0, err
	}
	switch op {
	case expr.OpEQ:
		if col.Distinct > 0 {
			return 1 / float64(col.Distinct), nil
		}
		return 0.1, nil
	case expr.OpNE:
		if col.Distinct > 0 {
			return 1 - 1/float64(col.Distinct), nil
		}
		return 0.9, nil
	default:
		if v.Kind == expr.TInt && col.Hist != nil {
			// Equi-depth histogram: accurate under skew.
			switch op {
			case expr.OpLT:
				return col.Hist.SelLT(v.I), nil
			case expr.OpLE:
				return col.Hist.SelLE(v.I), nil
			case expr.OpGT:
				return col.Hist.SelGT(v.I), nil
			case expr.OpGE:
				return col.Hist.SelGE(v.I), nil
			default:
				// EQ/NE handled above; fall through to the constant.
			}
		}
		if v.Kind == expr.TInt && col.Max > col.Min {
			// System R uniform interpolation on [min, max].
			f := float64(v.I-col.Min) / float64(col.Max-col.Min)
			if f < 0 {
				f = 0
			} else if f > 1 {
				f = 1
			}
			switch op {
			case expr.OpLT, expr.OpLE:
				return f, nil
			case expr.OpGT, expr.OpGE:
				return 1 - f, nil
			default:
				// EQ/NE handled above; fall through to the constant.
			}
		}
		return 1.0 / 3.0, nil
	}
}

// joinSelectivity estimates the selectivity of L op R, System R style:
// 1/max(distinct(L), distinct(R)) for equality.
func joinSelectivity(cat *catalog.Catalog, l, r ColRef, op expr.CmpOp) (float64, error) {
	lt, err := cat.Table(l.Table)
	if err != nil {
		return 0, err
	}
	lc, err := lt.Column(l.Col)
	if err != nil {
		return 0, err
	}
	rt, err := cat.Table(r.Table)
	if err != nil {
		return 0, err
	}
	rc, err := rt.Column(r.Col)
	if err != nil {
		return 0, err
	}
	if op == expr.OpEQ {
		d := lc.Distinct
		if rc.Distinct > d {
			d = rc.Distinct
		}
		if d > 0 {
			return 1 / float64(d), nil
		}
		return 0.01, nil
	}
	return 1.0 / 3.0, nil
}
