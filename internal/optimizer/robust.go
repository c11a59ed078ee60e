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
// have available. A scaling prices on a scaled copy of the cost model and
// never writes a predicate, so the three scalings run side by side, each on
// its own goroutine: its four enumerations over one set of access paths (the
// spectrum agrees at base level), all twelve over the planning's one
// read-only skeleton. The deduplicated candidates are then costed at the
// four corners of the (selectivity ×e/÷e, expensive-cost ×e/÷e) error box on
// scaled models; the plan minimizing the maximum corner cost wins, with the
// nominal cost breaking ties.

import (
	"encoding/binary"
	"math"
	"sync"

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
var robustSpectrum = [...]Algorithm{PushDown, PullRank, Migration, PullUp}

// WorstCase scores a plan over the error interval of half-width e: its
// largest cost at the four corners of the error box, where a corner scales
// all selectivities by e or 1/e and all expensive per-tuple costs by e or
// 1/e (cheap predicates, cost 0, stay free). Each corner moves every
// estimate the tree's stored annotations were computed from, so each is a
// full Annotate on a scaled model; the tree is left re-annotated at the
// nominal estimates.
func (o *Optimizer) WorstCase(root plan.Node, e float64) (float64, error) {
	worst := 0.0
	for _, corner := range [4][2]float64{{e, e}, {e, 1 / e}, {1 / e, e}, {1 / e, 1 / e}} {
		if err := o.model.Scaled(corner[0], corner[1]).Annotate(root); err != nil {
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
		if c.worst, err = o.WorstCase(c.root, e); err != nil {
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

// robustCandidates runs the spectrum under the three selectivity scalings,
// one goroutine per scaling, and returns the distinct plans in (scaling,
// algorithm) order. Every goroutine is joined before it returns; of several
// failed scalings the first in scaling order reports.
func (o *Optimizer) robustCandidates(q *query.Query, e float64) ([]*robustCandidate, error) {
	if err := fitsSystemR(q); err != nil {
		return nil, err
	}
	o.skel.fillShapes()
	var (
		runs [3]robustScaling
		wg   sync.WaitGroup
	)
	for i, selScale := range [3]float64{1, e, 1 / e} {
		sub := *o
		sub.model = o.model.Scaled(selScale, 1)
		if i > 0 {
			sub.mig = &migration{} // the first scaling reuses the planning's
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i].err = runs[i].generate(&sub, q)
		}()
	}
	wg.Wait()

	var cands []*robustCandidate
	seen := map[string]bool{}
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			return nil, r.err
		}
		for k, c := range r.cands {
			if !seen[r.keys[k]] {
				seen[r.keys[k]] = true
				cands = append(cands, c)
			}
		}
	}
	return cands, nil
}

// robustScaling is one scaling's share of Robust's candidate generation: a
// plan per spectrum algorithm, in spectrum order, with its shape key.
type robustScaling struct {
	cands [len(robustSpectrum)]*robustCandidate
	keys  [len(robustSpectrum)]string
	err   error
}

// generate plans the spectrum with sub, whose model is the scaling's.
func (r *robustScaling) generate(sub *Optimizer, q *query.Query) error {
	sub.opts.Algorithm = robustSpectrum[0]
	base, err := sub.basePaths(q)
	if err != nil {
		return err
	}
	for i, a := range robustSpectrum {
		sub.opts.Algorithm = a
		root, info, err := sub.systemR(q, base)
		if err != nil {
			return err
		}
		r.cands[i] = &robustCandidate{root: root, info: info}
		r.keys[i] = planShapeKey(root)
	}
	return nil
}

// planShapeKey reduces a plan to its operator structure, dropping the
// per-node estimate annotations: two candidates planned under different
// scenario selectivities are the same plan exactly when they run the same
// operators in the same tree. The key is built from what the operators do —
// node kind, table, predicate IDs, join method, index column and bounds —
// never from Describe, which prints the estimates of the scaling a tree was
// priced under. What a planning fixes for every candidate (the transfer filters,
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
