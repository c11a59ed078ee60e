package optimizer

// Robust predicate placement: instead of trusting the point estimates the
// rank metric is so sensitive to, score each candidate plan over an
// estimate-error interval and keep the plan whose worst case is best (after
// "Debunking the Myth of Join Ordering", arXiv 2502.15181, adapted to the
// paper's placement problem).
//
// Candidate generation reuses the System R planner under the placement
// spectrum's algorithms (PushDown, PullRank, Migration, PullUp) — and,
// because all of them share the same estimates, additionally re-plans under
// the interval's endpoint selectivities (every selectivity ×e and ÷e): a join
// order or access path that only wins when the estimates are wrong by a
// factor of e is exactly the alternative a robust choice must have
// available. ×1 and ×e plan the whole spectrum. ÷e plans one enumeration,
// PullRank's DP, and takes two candidates from its finalists: the cheapest
// (PullRank's plan) and the best migrated one (Migration's without
// unpruneable retention). Under ÷e every selectivity shrinks and buried
// predicates multiply: for the §4.4 query Migration with retention keeps 250
// subplans there (141 unpruneable) and runs 600 migration passes, against
// 124 and 110 at ×1. Yet held to all twelve runs over the plan corpus and
// interval widths 1.25 to 16, neither that run nor ÷e's PushDown and PullUp
// runs ever decides a plan (TestRobustMatchesFullSpectrum): nine
// enumerations instead of twelve, the costliest one gone. A scaling prices
// on a scaled copy of the cost model and never writes a predicate, so the
// scalings run side by side: ×1 on the planning's goroutine, ×e then ÷e on
// one other, each scaling's enumerations over one set of access paths (the
// spectrum agrees at base level), all nine over the planning's one
// read-only skeleton. The deduplicated candidates are then costed at the
// four corners of the (selectivity ×e/÷e, expensive-cost ×e/÷e) error box on
// scaled models; the plan minimizing the maximum corner cost wins, with the
// nominal cost breaking ties.

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
	cands, err := o.robustCandidates(q, e, (*robustScaling).pullRankAndMigrated)
	if err != nil {
		return nil, nil, err
	}
	return o.mostRobust(cands, e)
}

// mostRobust scores the candidates over the error interval of half-width e
// and returns the one whose worst case is smallest.
func (o *Optimizer) mostRobust(cands []*robustCandidate, e float64) (plan.Node, *Info, error) {
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

// robustCandidates plans the three selectivity scalings and returns the
// distinct plans in (scaling, algorithm) order. ×1 and ×e plan the spectrum;
// ÷e plans with divE, which a planning passes as pullRankAndMigrated (only
// the test that holds the two equal passes spectrum). The planning's
// goroutine runs ×1 with the planning's migration scratch; one goroutine runs
// ×e and then ÷e with a scratch of its own, and is joined before this
// returns; a panic there is raised again on the planning's goroutine, where
// its caller can recover it. Of several failed scalings the first in scaling
// order reports.
func (o *Optimizer) robustCandidates(q *query.Query, e float64, divE func(*robustScaling, *Optimizer, *query.Query) error) ([]*robustCandidate, error) {
	if err := fitsSystemR(q); err != nil {
		return nil, err
	}
	o.skel.fillShapes()
	scaled := func(selScale float64, mig *migration) *Optimizer {
		sub := *o
		sub.model, sub.mig = o.model.Scaled(selScale, 1), mig
		return &sub
	}
	var (
		runs     [3]robustScaling
		panicked any
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		mig := &migration{}
		runs[1].err = runs[1].spectrum(scaled(e, mig), q)
		runs[2].err = divE(&runs[2], scaled(1/e, mig), q)
	}()
	runs[0].err = runs[0].spectrum(scaled(1, o.mig), q)
	<-done
	if panicked != nil {
		panic(panicked)
	}

	var cands []*robustCandidate
	seen := map[string]bool{}
	for i := range runs {
		r := &runs[i]
		if r.err != nil {
			return nil, r.err
		}
		for k, c := range r.cands[:r.n] {
			if !seen[r.keys[k]] {
				seen[r.keys[k]] = true
				cands = append(cands, c)
			}
		}
	}
	return cands, nil
}

// robustScaling is one scaling's share of Robust's candidate generation: its
// plans in algorithm order, each with its shape key.
type robustScaling struct {
	cands [len(robustSpectrum)]*robustCandidate
	keys  [len(robustSpectrum)]string
	n     int
	err   error
}

// add records the scaling's next plan.
func (r *robustScaling) add(root plan.Node, info *Info) {
	r.cands[r.n] = &robustCandidate{root: root, info: info}
	r.keys[r.n] = planShapeKey(root)
	r.n++
}

// spectrum plans each spectrum algorithm with sub, whose model is the
// scaling's, over one set of access paths.
func (r *robustScaling) spectrum(sub *Optimizer, q *query.Query) error {
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
		r.add(root, info)
	}
	return nil
}

// pullRankAndMigrated plans the ÷e scaling with one enumeration: the DP under
// Migration's hoisting rule without unpruneable retention, which is exactly
// PullRank's. Its finalists give two candidates — the cheapest, PullRank's
// plan, finished as finalize finishes every non-Migration algorithm, and the
// best migrated one, Migration's plan without retention. Why nothing else
// at ÷e is needed is in the file comment.
func (r *robustScaling) pullRankAndMigrated(sub *Optimizer, q *query.Query) error {
	sub.opts.Algorithm, sub.opts.DisableUnpruneable = Migration, true
	base, err := sub.basePaths(q)
	if err != nil {
		return err
	}
	finalists, dp, err := sub.enumerate(q, base)
	if err != nil {
		return err
	}
	for _, a := range [...]Algorithm{PullRank, Migration} {
		sub.opts.Algorithm = a
		info := *dp
		root, err := sub.finalize(q, finalists, &info)
		if err != nil {
			return err
		}
		r.add(root, &info)
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
