package optimizer

// Robust predicate placement: instead of trusting the point estimates the
// rank metric is so sensitive to, score each candidate plan over an
// estimate-error interval and keep the plan whose worst case is best (after
// "Debunking the Myth of Join Ordering", arXiv 2502.15181, adapted to the
// paper's placement problem).
//
// Candidate generation reuses the System R planner under the placement
// spectrum's algorithms (PushDown, PullRank, Migration, PullUp) — and,
// because all of them share the same estimates, additionally re-plans the
// spectrum under the interval's endpoint selectivities (every selectivity
// ×e and ÷e): a join order or access path that only wins when the estimates
// are wrong by a factor of e is exactly the alternative a robust choice must
// have available. The twelve enumerations run over the planning's one
// skeleton, and the four of a scaling over one set of access paths (the
// spectrum agrees at base level); everything priced is priced anew per
// scaling. The deduplicated candidates are then costed at the four
// corners of the (selectivity ×e/÷e, expensive-cost ×e/÷e) error box by
// perturbing the shared predicate annotations and re-annotating each tree;
// the plan minimizing the maximum corner cost wins, with the nominal cost
// breaking ties.

import (
	"encoding/binary"
	"math"

	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// DefaultRobustE is the error-interval half-width used when Options.RobustE
// is unset: estimates trusted up to a factor of 4 either way.
const DefaultRobustE = 4.0

// robustSpectrum is the set of placement algorithms whose System R runs seed
// the candidate pool — the Figure 10 eagerness spectrum.
var robustSpectrum = []Algorithm{PushDown, PullRank, Migration, PullUp}

// perturbEstimates multiplies every predicate's selectivity (clamped to a
// probability) and per-tuple cost by the given factors and returns the
// function that puts the nominal annotations back. The predicates are shared
// with the caller's query, so every path out of a perturbation must run it.
func perturbEstimates(q *query.Query, selScale, costScale float64) (restore func()) {
	nominalSel := make([]float64, len(q.Preds))
	nominalCost := make([]float64, len(q.Preds))
	for i, p := range q.Preds {
		nominalSel[i], nominalCost[i] = p.Selectivity, p.CostPerTuple
		p.Selectivity = clampSel(p.Selectivity * selScale)
		p.CostPerTuple *= costScale
	}
	return func() {
		for i, p := range q.Preds {
			p.Selectivity, p.CostPerTuple = nominalSel[i], nominalCost[i]
		}
	}
}

// WorstCase scores a plan for q over the error interval of half-width e: its
// largest cost at the four corners of the error box, where a corner scales
// all selectivities by e or 1/e and all expensive per-tuple costs by e or
// 1/e (cheap predicates, cost 0, stay free). Each corner moves every
// estimate the tree's stored annotations were computed from, so each is a
// full Annotate; the tree is left re-annotated at the nominal estimates.
func (o *Optimizer) WorstCase(q *query.Query, root plan.Node, e float64) (float64, error) {
	worst := 0.0
	for _, corner := range [4][2]float64{{e, e}, {e, 1 / e}, {1 / e, e}, {1 / e, 1 / e}} {
		restore := perturbEstimates(q, corner[0], corner[1])
		err := o.model.Annotate(root)
		restore()
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, root.Cost())
	}
	return worst, o.model.Annotate(root)
}

// robustCandidate is one distinct plan Robust scores.
type robustCandidate struct {
	root  plan.Node
	info  *Info
	worst float64
}

// planRobust implements Algorithm Robust; see the file comment.
func (o *Optimizer) planRobust(q *query.Query) (plan.Node, *Info, error) {
	e := o.opts.RobustE
	if e <= 1 {
		e = DefaultRobustE
	}
	cands, err := o.robustCandidates(q, e)
	if err != nil {
		return nil, nil, err
	}

	best := cands[0]
	for _, c := range cands {
		var err error
		if c.worst, err = o.WorstCase(q, c.root, e); err != nil {
			return nil, nil, err
		}
		// Smallest worst case wins; the nominal cost breaks ties.
		switch nominal, bestNominal := c.root.Cost(), best.root.Cost(); {
		case !cost.ApproxEq(c.worst, best.worst):
			if c.worst < best.worst {
				best = c
			}
		case !cost.ApproxEq(nominal, bestNominal) && nominal < bestNominal:
			best = c
		}
	}
	info := best.info
	info.RobustE = e
	info.RobustWorst = best.worst
	info.RobustCandidates = len(cands)
	return best.root, info, nil
}

// robustCandidates runs the spectrum under the three selectivity scalings
// and returns the distinct plans in first-appearance order, the predicates
// back at their nominal estimates.
func (o *Optimizer) robustCandidates(q *query.Query, e float64) ([]*robustCandidate, error) {
	var cands []*robustCandidate
	seen := map[string]bool{}
	generate := func(selScale float64) error {
		defer perturbEstimates(q, selScale, 1)()
		sub := *o
		sub.opts.Algorithm = robustSpectrum[0]
		base, err := sub.basePaths(q)
		if err != nil {
			return err
		}
		for _, a := range robustSpectrum {
			sub.opts.Algorithm = a
			root, info, err := sub.systemR(q, base)
			if err != nil {
				return err
			}
			if key := planShapeKey(root); !seen[key] {
				seen[key] = true
				cands = append(cands, &robustCandidate{root: root, info: info})
			}
		}
		return nil
	}
	for _, selScale := range []float64{1, e, 1 / e} {
		if err := generate(selScale); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// clampSel keeps a perturbed selectivity a valid probability.
func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// planShapeKey reduces a plan to its operator structure, dropping the
// per-node estimate annotations: two candidates planned under different
// scenario selectivities are the same plan exactly when they run the same
// operators in the same tree. The key is built from what the operators do —
// node kind, table, predicate IDs, join method, index column and bounds —
// never from Describe, which prints the estimates of the scaling planned
// under. What a planning fixes for every candidate (the transfer filters,
// the ORDER BY key and bound) is left out.
func planShapeKey(n plan.Node) string {
	var b []byte
	pred := func(p *query.Predicate) {
		if p == nil {
			b = append(b, 0)
			return
		}
		b = binary.AppendUvarint(b, uint64(p.ID)+1)
	}
	str := func(s string) { b = append(append(b, s...), 0) }
	bound := func(v *expr.Value) {
		if v == nil {
			b = append(b, 0)
			return
		}
		b = binary.AppendVarint(append(b, 1), v.I)
	}
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		switch t := n.(type) {
		case *plan.SeqScan:
			b = append(b, 's')
			str(t.Table)
		case *plan.IndexScan:
			b = append(b, 'i')
			str(t.Table)
			str(t.Col)
			pred(t.Matched)
			bound(t.Eq)
			bound(t.Lo)
			bound(t.Hi)
		case *plan.Filter:
			b = append(b, 'f')
			pred(t.Pred)
			walk(t.Input)
		case *plan.Join:
			b = append(b, 'j', byte(t.Method), boolByte(t.SortOuter), boolByte(t.SortInner))
			pred(t.Primary)
			str(t.InnerIndexCol)
			walk(t.Outer)
			walk(t.Inner)
		case *plan.TopK:
			b = append(b, 't')
			walk(t.Input)
		case *plan.Limit:
			b = append(b, 'l', boolByte(t.Ordered))
			walk(t.Input)
		}
	}
	walk(n)
	return string(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
