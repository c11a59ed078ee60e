package plan

// The ORDER BY / LIMIT plan operators. Both are root-only: the optimizer
// wraps a finished plan with exactly one of them when the statement carries
// ORDER BY and/or LIMIT, so the plan root is the only place a statement is
// ordered or truncated.

import (
	"fmt"
	"math"

	"predplace/internal/query"
)

// TopK keeps the K first rows of its input under (Key, Tie) ordering using a
// bounded heap — the input is consumed completely, but only K rows are ever
// held (n·log k comparisons instead of an n·log n full sort) and only K rows
// flow upstream. Output is sorted: Key ascending (descending when Desc),
// ties broken by the Tie columns ascending. With no bound (K < 0: ORDER BY
// without LIMIT) the heap never evicts and the operator is the sort.
type TopK struct {
	Input Node
	// K is the LIMIT bound (≥ 1), or negative for none.
	K int64
	// Key is the ORDER BY column; Desc flips its direction.
	Key  query.ColRef
	Desc bool
	// Tie lists the tie-break columns (the projected output columns, in
	// projection order): rows equal on Key and every Tie column are
	// identical after projection, which is what makes the operator's choice
	// among such rows invisible in the delivered result.
	Tie     []query.ColRef
	EstCard float64
	EstCost float64
}

// Held is how many rows the heap holds over an input of card rows:
// min(K, card), or card when there is no bound.
func (t *TopK) Held(card float64) float64 {
	if t.K < 0 {
		return card
	}
	return math.Min(card, float64(t.K))
}

// Cols implements Node.
func (t *TopK) Cols() []query.ColRef { return t.Input.Cols() }

// Children implements Node.
func (t *TopK) Children() []Node { return []Node{t.Input} }

// Card implements Node.
func (t *TopK) Card() float64 { return t.EstCard }

// Cost implements Node.
func (t *TopK) Cost() float64 { return t.EstCost }

// Describe implements Node.
func (t *TopK) Describe() string {
	s := fmt.Sprintf("TopK %d by %s", t.K, t.Key)
	if t.K < 0 {
		s = fmt.Sprintf("Sort by %s", t.Key)
	}
	if t.Desc {
		s += " desc"
	}
	return s
}

// Limit passes through the first K rows of its input and stops pulling — the
// subtree beneath it never produces the rows the limit cuts off, so their
// page fetches and predicate invocations are never paid. The executor builds
// that subtree from serial operators, so which K rows arrive, and what they
// charge, do not depend on the worker count. Ordered marks the one case
// where the rows are an ORDER BY's first K: the input is an ascending index
// scan on a unique ORDER BY key, possibly under filters.
type Limit struct {
	Input Node
	// K is the LIMIT bound (≥ 0).
	K int64
	// Ordered marks that the input's order satisfies the query's ORDER BY.
	Ordered bool
	// Key is the ORDER BY column the input's order satisfies.
	Key     query.ColRef
	EstCard float64
	EstCost float64
}

// Cols implements Node.
func (l *Limit) Cols() []query.ColRef { return l.Input.Cols() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Input} }

// Card implements Node.
func (l *Limit) Card() float64 { return l.EstCard }

// Cost implements Node.
func (l *Limit) Cost() float64 { return l.EstCost }

// Describe implements Node.
func (l *Limit) Describe() string {
	if l.Ordered {
		return fmt.Sprintf("Limit %d (index order %s)", l.K, l.Key)
	}
	return fmt.Sprintf("Limit %d", l.K)
}
