package plan

import (
	"fmt"
	"math"

	"predplace/internal/query"
)

// validateTol absorbs floating-point rounding in the card/cost monotonicity
// checks. It matches cost.ApproxEqTol (the plan package cannot import cost —
// cost imports plan), and the two constants are cross-checked by a test.
const validateTol = 1e-9

// Validate checks a plan tree against the structural invariants every
// well-formed physical plan must satisfy, independent of which algorithm
// produced it:
//
//   - no nil nodes, inputs, or predicates where one is required;
//   - every estimated cardinality and cost is finite and non-negative;
//   - costs are cumulative: a Filter costs at least its input, a Join at
//     least its outer input, and Hash/Merge joins at least either input
//     (nested-loop variants re-read the inner base table directly, so the
//     inner subtree's own cost is deliberately not part of theirs);
//   - a Filter never outputs more tuples than it reads;
//   - every predicate's columns are bound by the schema below it: a Filter's
//     by its input, a Join primary's by the two inputs combined, an index
//     scan's matched predicate by its table;
//   - a Join's output columns are exactly outer-then-inner concatenation;
//   - nested-loop joins have a (filtered) base table inner, and
//     IndexNestLoop additionally an index column and an equality primary;
//   - TopK/Limit appear only as the plan root — a TopK with K ≥ 1 or no bound
//     (K < 0, the sort), a Limit with K ≥ 0 — with order/tie columns bound by
//     the input schema and output cardinality at most min(input, K).
//     A TopK costs at least its input (the heap adds comparisons); a Limit
//     is the one sanctioned break in cost cumulativity — early termination
//     means the subtree below it is only partially paid, so its cost may be
//     anywhere in (0, input];
//   - no predicate is applied twice on any root-to-leaf path. The one
//     sanctioned repeat: an IndexNestLoop's primary also appears as the
//     inner index scan's matched predicate — that is the probe itself, and
//     the cost model skips it the same way.
//
// It is the dynamic counterpart of the pplint static analyzers: run it on
// optimizer output in tests, or on every executed plan via PPLINT_VALIDATE=1.
func Validate(root Node) error {
	if root == nil {
		return fmt.Errorf("plan: nil root node")
	}
	return validate(root, "root", map[*query.Predicate]bool{})
}

// validate walks one root-to-leaf path; applied is the set of predicates
// consumed above n on this path (backtracked on return).
func validate(n Node, path string, applied map[*query.Predicate]bool) error {
	if err := checkEstimates(n, path); err != nil {
		return err
	}
	switch t := n.(type) {
	case *SeqScan:
		if err := checkTransfer(t.TransferRecv, t.TransferSel, path); err != nil {
			return err
		}
		return checkScanCols(t.Table, t.ColRefs, path)

	case *IndexScan:
		if err := checkTransfer(t.TransferRecv, t.TransferSel, path); err != nil {
			return err
		}
		if err := checkScanCols(t.Table, t.ColRefs, path); err != nil {
			return err
		}
		if t.Matched != nil {
			if applied[t.Matched] {
				return fmt.Errorf("plan: %s: predicate %s applied above is matched again by the index scan", path, t.Matched)
			}
			if err := checkBound(t.Matched, t.ColRefs, path); err != nil {
				return err
			}
		}
		return nil

	case *Filter:
		if t.Input == nil {
			return fmt.Errorf("plan: %s: Filter has nil input", path)
		}
		if t.Pred == nil {
			return fmt.Errorf("plan: %s: Filter has nil predicate", path)
		}
		if applied[t.Pred] {
			return fmt.Errorf("plan: %s: predicate %s applied twice on this path", path, t.Pred)
		}
		if err := checkBound(t.Pred, t.Input.Cols(), path); err != nil {
			return err
		}
		if t.Card() > t.Input.Card()*(1+validateTol)+validateTol {
			return fmt.Errorf("plan: %s: Filter outputs %.3f tuples from a %.3f-tuple input",
				path, t.Card(), t.Input.Card())
		}
		if t.Cost()+validateTol < t.Input.Cost() {
			return fmt.Errorf("plan: %s: Filter cost %.3f below its input's %.3f (costs must be cumulative)",
				path, t.Cost(), t.Input.Cost())
		}
		applied[t.Pred] = true
		err := validate(t.Input, path+"/input", applied)
		delete(applied, t.Pred)
		return err

	case *Join:
		return validateJoin(t, path, applied)

	case *TopK:
		if path != "root" {
			return fmt.Errorf("plan: %s: TopK below the plan root", path)
		}
		if t.Input == nil {
			return fmt.Errorf("plan: %s: TopK has nil input", path)
		}
		if t.K == 0 {
			return fmt.Errorf("plan: %s: TopK with k=0", path)
		}
		if err := checkColBound(t.Key, t.Input.Cols(), path, "TopK key"); err != nil {
			return err
		}
		for _, ref := range t.Tie {
			if err := checkColBound(ref, t.Input.Cols(), path, "TopK tie column"); err != nil {
				return err
			}
		}
		if limit := t.Held(t.Input.Card()); t.Card() > limit*(1+validateTol)+validateTol {
			return fmt.Errorf("plan: %s: TopK outputs %.3f tuples, at most min(input=%.3f, k=%d) allowed",
				path, t.Card(), t.Input.Card(), t.K)
		}
		if t.Cost()+validateTol < t.Input.Cost() {
			return fmt.Errorf("plan: %s: TopK cost %.3f below its input's %.3f (the heap consumes the whole input)",
				path, t.Cost(), t.Input.Cost())
		}
		return validate(t.Input, path+"/input", applied)

	case *Limit:
		if path != "root" {
			return fmt.Errorf("plan: %s: Limit below the plan root", path)
		}
		if t.Input == nil {
			return fmt.Errorf("plan: %s: Limit has nil input", path)
		}
		if t.K < 0 {
			return fmt.Errorf("plan: %s: Limit with k=%d", path, t.K)
		}
		if t.Ordered {
			if err := checkColBound(t.Key, t.Input.Cols(), path, "Limit order key"); err != nil {
				return err
			}
		}
		if limit := math.Min(t.Input.Card(), float64(t.K)); t.Card() > limit*(1+validateTol)+validateTol {
			return fmt.Errorf("plan: %s: Limit outputs %.3f tuples, at most min(input=%.3f, k=%d) allowed",
				path, t.Card(), t.Input.Card(), t.K)
		}
		// Early termination: the sanctioned exception to cost cumulativity.
		// The limit stops pulling after K rows, so the subtree below it is
		// only partially executed — its estimated cost may be below the
		// input's, but never above it.
		if t.Cost() > t.Input.Cost()*(1+validateTol)+validateTol {
			return fmt.Errorf("plan: %s: Limit cost %.3f above its input's %.3f (a limit never adds work)",
				path, t.Cost(), t.Input.Cost())
		}
		return validate(t.Input, path+"/input", applied)
	}
	return fmt.Errorf("plan: %s: unknown node type %T", path, n)
}

func validateJoin(j *Join, path string, applied map[*query.Predicate]bool) error {
	if j.Outer == nil || j.Inner == nil {
		return fmt.Errorf("plan: %s: %v join with nil child (outer=%v inner=%v)",
			path, j.Method, j.Outer != nil, j.Inner != nil)
	}
	switch j.Method {
	case NestLoop, IndexNestLoop, MergeJoin, HashJoin:
	default:
		return fmt.Errorf("plan: %s: unknown join method %d", path, j.Method)
	}
	if j.Primary != nil {
		if applied[j.Primary] {
			return fmt.Errorf("plan: %s: primary predicate %s already applied above on this path", path, j.Primary)
		}
		if err := checkBound(j.Primary, ConcatCols(j.Outer, j.Inner), path); err != nil {
			return err
		}
	}
	if err := checkConcat(j, path); err != nil {
		return err
	}
	// Cost cumulativity per method (matches cost.Model.annotateJoin).
	if j.Cost()+validateTol < j.Outer.Cost() {
		return fmt.Errorf("plan: %s: join cost %.3f below its outer input's %.3f", path, j.Cost(), j.Outer.Cost())
	}
	switch j.Method {
	case HashJoin, MergeJoin:
		if j.Cost()+validateTol < j.Inner.Cost() {
			return fmt.Errorf("plan: %s: %v cost %.3f below its inner input's %.3f",
				path, j.Method, j.Cost(), j.Inner.Cost())
		}
	case NestLoop, IndexNestLoop:
		// The executor rebuilds the inner from its base table per outer tuple
		// (or probes its index); the inner subtree's cost is not additive.
		if _, _, ok := BaseTable(j.Inner); !ok {
			return fmt.Errorf("plan: %s: %v inner must be a (filtered) base table", path, j.Method)
		}
	}
	if j.Method == IndexNestLoop {
		if j.InnerIndexCol == "" {
			return fmt.Errorf("plan: %s: IndexNestLoop without an inner index column", path)
		}
		if j.Primary == nil || j.Primary.Kind != query.KindJoinCmp {
			return fmt.Errorf("plan: %s: IndexNestLoop requires a join-comparison primary predicate", path)
		}
	}

	if j.Primary != nil {
		applied[j.Primary] = true
	}
	if err := validate(j.Outer, path+"/outer", applied); err != nil {
		return err
	}
	// Exception: an IndexNestLoop's primary legitimately reappears in the
	// inner chain as the index scan's matched predicate — it IS the probe
	// (cost.Model skips it there for the same reason).
	if j.Method == IndexNestLoop && j.Primary != nil {
		delete(applied, j.Primary)
	}
	err := validate(j.Inner, path+"/inner", applied)
	if j.Primary != nil {
		delete(applied, j.Primary)
	}
	return err
}

// checkEstimates rejects non-finite or negative cardinality/cost estimates.
func checkEstimates(n Node, path string) error {
	card, c := n.Card(), n.Cost()
	if math.IsNaN(card) || math.IsInf(card, 0) || card < 0 {
		return fmt.Errorf("plan: %s: invalid estimated cardinality %v", path, card)
	}
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		return fmt.Errorf("plan: %s: invalid estimated cost %v", path, c)
	}
	return nil
}

// checkTransfer requires transfer annotations to be internally consistent: a
// scan with received filters must carry a usable selectivity estimate, and a
// scan without them must not claim one (TransferSel 0 or exactly 1 — the
// zero value, or a model that computed "no reduction").
func checkTransfer(recv []string, sel float64, path string) error {
	if len(recv) > 0 {
		if math.IsNaN(sel) || sel <= 0 || sel > 1 {
			return fmt.Errorf("plan: %s: scan receives transfer filters (%v) with invalid selectivity %v", path, recv, sel)
		}
		return nil
	}
	if sel != 0 && sel != 1 {
		return fmt.Errorf("plan: %s: scan receives no transfer filters but has selectivity %v", path, sel)
	}
	return nil
}

// checkScanCols requires a scan to expose at least one column, all of its
// own table.
func checkScanCols(table string, cols []query.ColRef, path string) error {
	if len(cols) == 0 {
		return fmt.Errorf("plan: %s: scan of %s exposes no columns", path, table)
	}
	for _, c := range cols {
		if c.Table != table {
			return fmt.Errorf("plan: %s: scan of %s exposes foreign column %s", path, table, c)
		}
	}
	return nil
}

// checkConcat requires a join's output schema to be exactly the outer
// columns followed by the inner columns.
func checkConcat(j *Join, path string) error {
	want := ConcatCols(j.Outer, j.Inner)
	if len(j.ColRefs) != len(want) {
		return fmt.Errorf("plan: %s: join exposes %d columns, inputs provide %d", path, len(j.ColRefs), len(want))
	}
	for i, c := range j.ColRefs {
		if c != want[i] {
			return fmt.Errorf("plan: %s: join column %d is %s, want %s (outer++inner order)", path, i, c, want[i])
		}
	}
	return nil
}

// checkBound requires every column the predicate reads to be present in the
// schema it is evaluated against.
func checkBound(p *query.Predicate, schema []query.ColRef, path string) error {
	for _, ref := range predCols(p) {
		found := false
		for _, c := range schema {
			if c == ref {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("plan: %s: predicate %s reads column %s not produced below it", path, p, ref)
		}
	}
	return nil
}

// checkColBound requires one column reference to be present in a schema.
func checkColBound(ref query.ColRef, schema []query.ColRef, path, what string) error {
	for _, c := range schema {
		if c == ref {
			return nil
		}
	}
	return fmt.Errorf("plan: %s: %s %s not produced below it", path, what, ref)
}

// predCols lists the columns a predicate reads.
func predCols(p *query.Predicate) []query.ColRef {
	switch p.Kind {
	case query.KindSelCmp:
		return []query.ColRef{p.Left}
	case query.KindJoinCmp:
		return []query.ColRef{p.Left, p.Right}
	case query.KindFunc:
		return p.Args
	}
	return nil
}
