package optimizer

import (
	"sort"

	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// migration is one plan's Predicate Migration in progress: the flat plan
// whose filter lists the stream passes rewrite, and the annotated tree of its
// current placement — built when a pass or the bookkeeping first needs it,
// and again only after a pass has rewritten a list differently.
type migration struct {
	o     *Optimizer
	f     *FlatPlan
	tree  plan.Node    // nil when f's lists have changed since it was built
	joins []*plan.Join // tree's joins in step order
}

// price makes tree and joins current.
func (m *migration) price() error {
	if m.tree != nil {
		return nil
	}
	tree := m.f.Tree()
	if err := m.o.model.Annotate(tree); err != nil {
		return err
	}
	m.tree, m.joins = tree, joinNodes(tree)
	return nil
}

// migrate runs the Predicate Migration algorithm (§4.4) on a left-deep plan:
// it repeatedly applies the series-parallel algorithm using parallel chains
// [MS79] to each root-to-leaf stream — inner streams before the spine, per
// §5.2's pull-from-inner-first policy — until no predicate moves. The
// returned tree is freshly built and annotated.
func (o *Optimizer) migrate(root plan.Node) (plan.Node, int, error) {
	f, err := Flatten(root)
	if err != nil {
		return nil, 0, err
	}
	m := &migration{o: o, f: f}
	passes := 0
	// Moving a selection changes cardinalities, which changes the ranks the
	// next pass sees, so the placement sequence can cycle instead of
	// converging (the cross-stream interdependency of §6). We detect cycles
	// by placement signature and keep the cheapest plan seen — its tree: a
	// placement that changes gets a new one, so a recorded tree stays as it
	// was priced.
	seen := map[string]bool{}
	var best plan.Node
	record := func() error {
		if err := m.price(); err != nil {
			return err
		}
		if best == nil || m.tree.Cost() < best.Cost() {
			best = m.tree
		}
		return nil
	}
	if err := record(); err != nil {
		return nil, 0, err
	}
	for iter := 0; iter < o.opts.MaxMigrationPasses; iter++ {
		changed := false
		// Streams: k = len(Steps) … 1 are the inner streams (entering step
		// k-1 from the inner side); k = 0 is the spine.
		for k := len(f.Steps); k >= 0; k-- {
			ch, err := m.stream(k)
			if err != nil {
				return nil, passes, err
			}
			changed = changed || ch
			passes++
		}
		if err := record(); err != nil {
			return nil, passes, err
		}
		sig := f.signature()
		if !changed || seen[sig] {
			break
		}
		seen[sig] = true
	}
	return best, passes, nil
}

// moduleGroup is a maximal run of join modules composed because they were
// out of rank order (descending), carrying the paper's group rank.
type moduleGroup struct {
	mod       cost.Module
	firstStep int
	lastStep  int
}

// groupModules performs the parallel-chains step: adjacent modules whose
// ranks descend are fused with Compose until ranks ascend.
func groupModules(mods []cost.Module, firstStep int) []moduleGroup {
	var stack []moduleGroup
	for i, m := range mods {
		g := moduleGroup{mod: m, firstStep: firstStep + i, lastStep: firstStep + i}
		stack = append(stack, g)
		for len(stack) >= 2 {
			a, b := stack[len(stack)-2], stack[len(stack)-1]
			if a.mod.Rank() <= b.mod.Rank() {
				break
			}
			stack = stack[:len(stack)-2]
			stack = append(stack, moduleGroup{
				mod:       cost.Compose(a.mod, b.mod),
				firstStep: a.firstStep,
				lastStep:  b.lastStep,
			})
		}
	}
	return stack
}

// migrateStream optimally re-places the selections lying on one root-to-leaf
// stream of the plan. k = 0 is the spine (the stream of the outermost base
// table, passing every join from the outer side); k ≥ 1 is the stream of
// step k-1's inner table (entering that join from the inner side and every
// later join from the outer side).
//
// Constrained selections that want to sink below their home join (rank lower
// than their lowest legal position's neighborhood) are *pinned* immediately
// above their home step and composed into the module chain — a pinned free
// filter (e.g. a highly selective secondary join predicate) lowers its home
// join's effective rank, which can trigger further grouping and justify
// pulling other selections over the whole group. The pinning loop iterates
// to fixpoint before the remaining selections are placed.
func (m *migration) stream(k int) (bool, error) {
	o, f := m.o, m.f
	startStep := 0
	innerEntry := false
	if k >= 1 {
		startStep = k - 1
		innerEntry = true
	}

	// Leaf info for gap-0 eligibility and caching-aware selection ranks.
	var leafTable string
	if innerEntry {
		leafTable = f.Steps[startStep].InnerTable
	} else {
		leafTable = f.BaseTable
	}
	leafCard := float64(o.skel.table(leafTable).Card)

	// Collect the movable selections on this stream with current positions
	// (in step units: -1 = gap 0, otherwise the AfterFilters step index).
	type placed struct {
		pred *query.Predicate
		pos  int
	}
	var movable []placed
	gap0 := func() *[]*query.Predicate {
		if innerEntry {
			return &f.Steps[startStep].InnerFilters
		}
		return &f.BaseFilters
	}
	for _, p := range *gap0() {
		movable = append(movable, placed{pred: p, pos: -1})
	}
	for i := startStep; i < len(f.Steps); i++ {
		for _, p := range f.Steps[i].AfterFilters {
			movable = append(movable, placed{pred: p, pos: i})
		}
	}
	if len(movable) == 0 {
		return false, nil
	}

	// Fixed join modules of this stream, with per-input stats (§3.2).
	if err := m.price(); err != nil {
		return false, err
	}
	nSteps := len(f.Steps) - startStep
	baseMods := make([]cost.Module, 0, nSteps)
	for i := startStep; i < len(f.Steps); i++ {
		os, is := o.model.JoinInputStats(m.joins[i])
		st := os
		if innerEntry && i == startStep {
			st = is
		}
		baseMods = append(baseMods, st.Module())
	}

	// homeStepOf returns the lowest step a selection must stay above on this
	// stream, or -1 when it may sit at gap 0 (homed on the stream's leaf).
	homeStepOf := func(p *query.Predicate) (int, error) {
		if len(p.Tables) == 1 && p.Tables[0] == leafTable {
			return -1, nil
		}
		home, ok := f.homeStep(p)
		if !ok {
			return 0, errBadPred(p)
		}
		if home < startStep {
			home = startStep
		}
		return home, nil
	}

	// Pinning loop: compose stuck selections into their home modules.
	pinStep := map[*query.Predicate]int{}
	var groups []moduleGroup
	for iter := 0; iter <= len(movable); iter++ {
		aug := make([]cost.Module, nSteps)
		copy(aug, baseMods)
		// Compose pinned selections onto their home modules, rank order.
		byStep := map[int][]*query.Predicate{}
		for p, s := range pinStep {
			byStep[s] = append(byStep[s], p)
		}
		for s, preds := range byStep {
			sort.Slice(preds, func(a, b int) bool {
				ra, rb := o.selRank(preds[a], leafCard), o.selRank(preds[b], leafCard)
				if !cost.ApproxEq(ra, rb) {
					return ra < rb
				}
				return preds[a].ID < preds[b].ID
			})
			for _, p := range preds {
				aug[s-startStep] = cost.Compose(aug[s-startStep], o.model.SelectionModule(p, leafCard))
			}
		}
		groups = groupModules(aug, startStep)

		newPins := false
		for _, pl := range movable {
			p := pl.pred
			if _, done := pinStep[p]; done {
				continue
			}
			home, err := homeStepOf(p)
			if err != nil {
				return false, err
			}
			if home < 0 {
				continue // leaf-homed: gap 0 always legal, never stuck
			}
			minGap := gapAfterStep(groups, home)
			g := desiredGap(groups, o.selRank(p, leafCard))
			if g < minGap {
				pinStep[p] = home
				newPins = true
			}
		}
		if !newPins {
			break
		}
	}

	// Final placement.
	assign := make([]placed, len(movable))
	for i, pl := range movable {
		p := pl.pred
		if s, ok := pinStep[p]; ok {
			assign[i] = placed{pred: p, pos: s}
			continue
		}
		home, err := homeStepOf(p)
		if err != nil {
			return false, err
		}
		g := desiredGap(groups, o.selRank(p, leafCard))
		if home >= 0 {
			if min := gapAfterStep(groups, home); g < min {
				g = min
			}
		}
		if g == 0 {
			assign[i] = placed{pred: p, pos: -1}
		} else {
			assign[i] = placed{pred: p, pos: groups[g-1].lastStep}
		}
	}

	changed := false
	for i := range movable {
		if movable[i].pos != assign[i].pos {
			changed = true
		}
	}

	// Rewrite the stream's filter lists.
	*gap0() = nil
	for i := startStep; i < len(f.Steps); i++ {
		f.Steps[i].AfterFilters = nil
	}
	sort.SliceStable(assign, func(a, b int) bool {
		if assign[a].pos != assign[b].pos {
			return assign[a].pos < assign[b].pos
		}
		ra, rb := o.selRank(assign[a].pred, leafCard), o.selRank(assign[b].pred, leafCard)
		if !cost.ApproxEq(ra, rb) {
			return ra < rb
		}
		return assign[a].pred.ID < assign[b].pred.ID
	})
	for i, pl := range assign {
		if pl != movable[i] {
			m.tree = nil // a list differs, if only in order: the tree is stale
		}
		if pl.pos < 0 {
			*gap0() = append(*gap0(), pl.pred)
			continue
		}
		f.Steps[pl.pos].AfterFilters = append(f.Steps[pl.pos].AfterFilters, pl.pred)
	}
	return changed, nil
}

// desiredGap returns the gap after every group of rank ≤ r.
func desiredGap(groups []moduleGroup, r float64) int {
	g := 0
	for _, grp := range groups {
		if grp.mod.Rank() <= r {
			g++
		} else {
			break
		}
	}
	return g
}

// gapAfterStep maps a step index to its gap number: the gap immediately
// above the group containing the step.
func gapAfterStep(groups []moduleGroup, step int) int {
	for gi, g := range groups {
		if step >= g.firstStep && step <= g.lastStep {
			return gi + 1
		}
	}
	return len(groups)
}

type badPredError struct{ p *query.Predicate }

func errBadPred(p *query.Predicate) error { return &badPredError{p} }

func (e *badPredError) Error() string {
	return "optimizer: predicate " + e.p.String() + " references a table outside the plan"
}
