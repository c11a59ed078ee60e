package sqlparse

import (
	"fmt"

	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/query"
)

// Bound is the result of semantic analysis: a logical query plus the
// projection to apply to its SELECT-* output.
type Bound struct {
	Query *query.Query
	// Explain mirrors the EXPLAIN prefix.
	Explain bool
	// Analyze mirrors EXPLAIN ANALYZE.
	Analyze bool
	// Star reports SELECT *.
	Star bool
	// CountStar reports SELECT COUNT(*).
	CountStar bool
	// Projection lists the resolved output columns when not Star.
	Projection []query.ColRef
	// OrderBy is the resolved sort column (nil = none); Desc reverses.
	OrderBy *query.ColRef
	Desc    bool
	// Limit caps result rows (-1 = none).
	Limit int64
}

// SubqueryCompiler turns a parsed IN-subquery into an expensive predicate
// function. lhs is the IN operand; args lists the function's inputs (the lhs
// column followed by each correlated outer column). The returned function is
// invoked with values bound in that order.
type SubqueryCompiler func(sub *SelectStmt, not bool, args []query.ColRef) (*expr.FuncDef, error)

// Binder resolves a parsed statement against a catalog.
type Binder struct {
	Cat *catalog.Catalog
	// CompileSubquery handles IN-subqueries; nil rejects them.
	CompileSubquery SubqueryCompiler
}

// Bind type-checks the statement and lowers it to a logical query.
func (b *Binder) Bind(stmt *SelectStmt) (*Bound, error) {
	if len(stmt.Tables) == 0 {
		return nil, fmt.Errorf("sqlparse: empty FROM list")
	}
	tabs := make(map[string]*catalog.Table, len(stmt.Tables))
	for _, t := range stmt.Tables {
		tab, err := b.Cat.Table(t)
		if err != nil {
			return nil, err
		}
		if _, dup := tabs[t]; dup {
			return nil, fmt.Errorf("sqlparse: table %s listed twice (self-joins need aliases, which are unsupported)", t)
		}
		tabs[t] = tab
	}

	resolve := func(c ColExpr) (query.ColRef, error) {
		if c.Table != "" {
			tab, ok := tabs[c.Table]
			if !ok {
				return query.ColRef{}, fmt.Errorf("sqlparse: table %s not in FROM list", c.Table)
			}
			if tab.ColIndex(c.Col) < 0 {
				return query.ColRef{}, fmt.Errorf("sqlparse: no column %s in table %s", c.Col, c.Table)
			}
			return query.ColRef{Table: c.Table, Col: c.Col}, nil
		}
		var found query.ColRef
		hits := 0
		for name, tab := range tabs {
			if tab.ColIndex(c.Col) >= 0 {
				found = query.ColRef{Table: name, Col: c.Col}
				hits++
			}
		}
		switch hits {
		case 0:
			return query.ColRef{}, fmt.Errorf("sqlparse: unknown column %s", c.Col)
		case 1:
			return found, nil
		default:
			return query.ColRef{}, fmt.Errorf("sqlparse: ambiguous column %s", c.Col)
		}
	}

	var preds []*query.Predicate
	for _, w := range stmt.Where {
		p, err := b.bindPred(w, resolve)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}

	q, err := query.NewQuery(stmt.Tables, preds)
	if err != nil {
		return nil, err
	}
	if err := query.Analyze(b.Cat, q); err != nil {
		return nil, err
	}

	out := &Bound{Query: q, Explain: stmt.Explain, Analyze: stmt.Analyze,
		Star: stmt.Star, CountStar: stmt.CountStar, Desc: stmt.Desc, Limit: stmt.Limit}
	for _, c := range stmt.Columns {
		ref, err := resolve(c)
		if err != nil {
			return nil, err
		}
		out.Projection = append(out.Projection, ref)
	}
	if stmt.OrderBy.Col != "" {
		ref, err := resolve(stmt.OrderBy)
		if err != nil {
			return nil, err
		}
		out.OrderBy = &ref
	}
	return out, nil
}

// TypeMismatchError is a comparison whose two sides are of different types:
// a column and a column, or a column and a constant, named as written. Such
// a comparison has no SQL meaning, so it is refused when the statement is
// bound; a NULL constant compares with any type.
type TypeMismatchError struct {
	Left, Right         string
	LeftType, RightType expr.Type
}

func (e *TypeMismatchError) Error() string {
	return fmt.Sprintf("sqlparse: cannot compare %s (%s) with %s (%s)", e.Left, e.LeftType, e.Right, e.RightType)
}

// colType is the declared type of a resolved column.
func (b *Binder) colType(ref query.ColRef) (expr.Type, error) {
	tab, err := b.Cat.Table(ref.Table)
	if err != nil {
		return 0, err
	}
	return tab.Columns[tab.ColIndex(ref.Col)].Type, nil
}

// constOf returns o's value, and a TypeMismatchError unless the column col
// compared with it is of its type (a NULL is of any).
func (b *Binder) constOf(col query.ColRef, o Operand) (expr.Value, error) {
	v := operandValue(o)
	if v.IsNull() {
		return v, nil
	}
	lt, err := b.colType(col)
	if err != nil {
		return v, err
	}
	if lt != v.Kind {
		return v, &TypeMismatchError{Left: col.String(), LeftType: lt, Right: v.String(), RightType: v.Kind}
	}
	return v, nil
}

func operandValue(o Operand) expr.Value {
	switch {
	case o.IsString:
		return expr.S(o.Str)
	case o.IsNull:
		return expr.Null
	case o.IsBool:
		return expr.B(o.Bool)
	default:
		return expr.I(o.Int)
	}
}

func cmpOp(s string) (expr.CmpOp, error) {
	switch s {
	case "=":
		return expr.OpEQ, nil
	case "<>":
		return expr.OpNE, nil
	case "<":
		return expr.OpLT, nil
	case "<=":
		return expr.OpLE, nil
	case ">":
		return expr.OpGT, nil
	case ">=":
		return expr.OpGE, nil
	}
	return 0, fmt.Errorf("sqlparse: bad operator %q", s)
}

func (b *Binder) bindPred(w PredExpr, resolve func(ColExpr) (query.ColRef, error)) (*query.Predicate, error) {
	switch t := w.(type) {
	case *CmpPred:
		op, err := cmpOp(t.Op)
		if err != nil {
			return nil, err
		}
		switch {
		case t.Left.IsCol && t.Right.IsCol:
			l, err := resolve(t.Left.Col)
			if err != nil {
				return nil, err
			}
			r, err := resolve(t.Right.Col)
			if err != nil {
				return nil, err
			}
			if l.Table == r.Table {
				return nil, fmt.Errorf("sqlparse: same-table column comparisons are unsupported (%s vs %s)", l, r)
			}
			lt, err := b.colType(l)
			if err != nil {
				return nil, err
			}
			rt, err := b.colType(r)
			if err != nil {
				return nil, err
			}
			if lt != rt {
				return nil, &TypeMismatchError{Left: l.String(), LeftType: lt, Right: r.String(), RightType: rt}
			}
			return &query.Predicate{Kind: query.KindJoinCmp, Op: op, Left: l, Right: r}, nil
		case t.Left.IsCol:
			l, err := resolve(t.Left.Col)
			if err != nil {
				return nil, err
			}
			v, err := b.constOf(l, t.Right)
			if err != nil {
				return nil, err
			}
			return &query.Predicate{Kind: query.KindSelCmp, Op: op, Left: l, Value: v}, nil
		case t.Right.IsCol:
			r, err := resolve(t.Right.Col)
			if err != nil {
				return nil, err
			}
			v, err := b.constOf(r, t.Left)
			if err != nil {
				return nil, err
			}
			return &query.Predicate{Kind: query.KindSelCmp, Op: op.Flip(), Left: r, Value: v}, nil
		default:
			return nil, fmt.Errorf("sqlparse: constant comparison has no table")
		}

	case *FuncPred:
		f, err := b.Cat.Func(t.Name)
		if err != nil {
			return nil, err
		}
		if f.Arity != len(t.Args) {
			return nil, fmt.Errorf("sqlparse: %s takes %d arguments, got %d", t.Name, f.Arity, len(t.Args))
		}
		var args []query.ColRef
		for _, a := range t.Args {
			if !a.IsCol {
				return nil, fmt.Errorf("sqlparse: function arguments must be columns")
			}
			ref, err := resolve(a.Col)
			if err != nil {
				return nil, err
			}
			args = append(args, ref)
		}
		return &query.Predicate{Kind: query.KindFunc, Func: f, Args: args}, nil

	case *InPred:
		if b.CompileSubquery == nil {
			return nil, fmt.Errorf("sqlparse: IN-subqueries are not supported here")
		}
		lhs, err := resolve(t.Left)
		if err != nil {
			return nil, err
		}
		args := []query.ColRef{lhs}
		// Correlated references: columns in the subquery's WHERE clause that
		// resolve against the *outer* FROM list rather than the subquery's.
		corr, err := b.correlatedRefs(t.Sub, resolve)
		if err != nil {
			return nil, err
		}
		args = append(args, corr...)
		f, err := b.CompileSubquery(t.Sub, t.Not, args)
		if err != nil {
			return nil, err
		}
		return &query.Predicate{Kind: query.KindFunc, Func: f, Args: args}, nil
	}
	return nil, fmt.Errorf("sqlparse: unknown predicate type %T", w)
}

// correlatedRefs finds outer-table column references inside a subquery.
func (b *Binder) correlatedRefs(sub *SelectStmt, outerResolve func(ColExpr) (query.ColRef, error)) ([]query.ColRef, error) {
	subTabs := map[string]bool{}
	for _, t := range sub.Tables {
		subTabs[t] = true
	}
	var out []query.ColRef
	seen := map[query.ColRef]bool{}
	addIfOuter := func(c ColExpr) error {
		if c.Table == "" || subTabs[c.Table] {
			return nil
		}
		ref, err := outerResolve(c)
		if err != nil {
			return err
		}
		if !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
		return nil
	}
	for _, w := range sub.Where {
		switch t := w.(type) {
		case *CmpPred:
			if t.Left.IsCol {
				if err := addIfOuter(t.Left.Col); err != nil {
					return nil, err
				}
			}
			if t.Right.IsCol {
				if err := addIfOuter(t.Right.Col); err != nil {
					return nil, err
				}
			}
		case *FuncPred:
			for _, a := range t.Args {
				if a.IsCol {
					if err := addIfOuter(a.Col); err != nil {
						return nil, err
					}
				}
			}
		case *InPred:
			return nil, fmt.Errorf("sqlparse: nested IN-subqueries are unsupported")
		}
	}
	return out, nil
}

// BindDelete resolves a DELETE statement into the target table and its
// analyzed predicate list.
func (b *Binder) BindDelete(stmt *DeleteStmt) (*query.Query, error) {
	sel := &SelectStmt{Star: true, Tables: []string{stmt.Table}, Where: stmt.Where}
	bound, err := b.Bind(sel)
	if err != nil {
		return nil, err
	}
	return bound.Query, nil
}
