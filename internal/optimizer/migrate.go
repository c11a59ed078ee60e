package optimizer

import (
	"cmp"
	"math"
	"slices"

	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// migration is one plan's Predicate Migration in progress: the flat plan
// whose filter lists the stream passes rewrite, and the annotated tree of its
// current placement — built when a pass or the bookkeeping first needs it,
// and again only after a pass has rewritten a list differently. A planning
// keeps one and reuses it for every plan it migrates, so the passes' scratch
// (everything below tree and joins) grows to the widest stream once and a
// pass allocates nothing.
type migration struct {
	o *Optimizer
	f *FlatPlan
	// tree is the annotated tree of a placement and joins its joins in step
	// order. stale is the lowest filter list (a listLevel) a pass has
	// rewritten since tree was built, or fresh.
	tree  plan.Node
	joins []*plan.Join
	stale int

	// Per stream pass: the movable selections and where they go, and, by
	// movable index, each one's home step (-1: it may sit at gap 0) and the
	// step it is pinned onto (-1: not pinned); pins lists the pinned in
	// composition order.
	movable, assign []placed
	home, pinned    []int
	pins            []int
	// The stream's join modules, those with the pinned selections composed
	// in, and their parallel-chains grouping.
	mods, aug []cost.Module
	groups    []moduleGroup
	// sig is the placement signature of the last round that moved a
	// selection.
	sig []byte
}

// placed is a movable selection at a position on its stream, in step units:
// -1 = gap 0, otherwise the AfterFilters step index.
type placed struct {
	pred *query.Predicate
	pos  int
}

// fresh is migration.stale when no list has been rewritten since the tree
// was built.
const fresh = math.MaxInt

// listLevel numbers a flat plan's filter lists bottom-up in tree order:
// BaseFilters 0, then per step i its InnerFilters 2i+1 and AfterFilters
// 2i+2.
func listLevel(inner bool, step int) int {
	if inner {
		return 2*step + 1
	}
	return 2*step + 2
}

// streamLevel is the listLevel of position pos on stream k: gap 0 is the
// leaf's filters, BaseFilters on the spine and the inner's InnerFilters on
// an inner stream.
func streamLevel(k, pos int) int {
	switch {
	case pos >= 0:
		return listLevel(false, pos)
	case k == 0:
		return 0
	}
	return listLevel(true, k-1)
}

// price makes tree and joins current. Only the nodes above the lowest
// rewritten list are built and annotated anew: the nodes below it are the
// last tree's, and their annotations depend only on their subtree, which no
// rewrite has touched.
func (m *migration) price() error {
	if m.stale == fresh {
		return nil
	}
	var tree plan.Node
	var err error
	switch i := (m.stale - 1) / 2; {
	case m.stale == 0:
		tree = m.f.Tree()
		err = m.o.model.Annotate(tree)
	case m.stale == listLevel(true, i): // step i's join has a new inner
		below := m.joins[i].Outer
		tree = m.f.treeFrom(below, i)
		err = m.o.model.AnnotateAbove(tree, below)
	default: // step i's join stands; the filters above it moved
		below := m.joins[i]
		tree = m.f.treeFrom(chainFilters(below, m.f.Steps[i].AfterFilters), i+1)
		err = m.o.model.AnnotateAbove(tree, below)
	}
	if err != nil {
		return err
	}
	m.tree, m.joins, m.stale = tree, joinNodes(m.joins[:0], tree), fresh
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
	m := o.mig
	m.o, m.f, m.tree, m.stale = o, f, nil, 0
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
		if !changed {
			break
		}
		m.sig = f.appendSignature(m.sig[:0])
		if seen[string(m.sig)] {
			break
		}
		seen[string(m.sig)] = true
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

// groupModules performs the parallel-chains step on the stack it is given
// (emptied first): adjacent modules whose ranks descend are fused with
// Compose until ranks ascend.
func groupModules(stack []moduleGroup, mods []cost.Module, firstStep int) []moduleGroup {
	stack = stack[:0]
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

// stream optimally re-places the selections lying on one root-to-leaf
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
//
// The pass runs in place: its working lists are the migration's scratch and
// the stream's filter lists are rewritten within their own storage.
func (m *migration) stream(k int) (bool, error) {
	o, f := m.o, m.f
	startStep := 0
	leafTable, gap0 := f.BaseTable, &f.BaseFilters
	if k >= 1 {
		startStep = k - 1
		leafTable, gap0 = f.Steps[startStep].InnerTable, &f.Steps[startStep].InnerFilters
	}
	// Leaf info for gap-0 eligibility and caching-aware selection ranks.
	leafCard := float64(o.skel.table(leafTable).Card)

	// Collect the movable selections on this stream with current positions.
	m.movable = m.movable[:0]
	for _, p := range *gap0 {
		m.movable = append(m.movable, placed{pred: p, pos: -1})
	}
	for i := startStep; i < len(f.Steps); i++ {
		for _, p := range f.Steps[i].AfterFilters {
			m.movable = append(m.movable, placed{pred: p, pos: i})
		}
	}
	movable := m.movable
	if len(movable) == 0 {
		return false, nil
	}

	// Fixed join modules of this stream, with per-input stats (§3.2).
	if err := m.price(); err != nil {
		return false, err
	}
	m.mods = m.mods[:0]
	for i := startStep; i < len(f.Steps); i++ {
		os, is := o.model.JoinInputStats(m.joins[i])
		st := os
		if k >= 1 && i == startStep {
			st = is
		}
		m.mods = append(m.mods, st.Module())
	}

	// The lowest step each selection must stay above on this stream, or -1
	// when it may sit at gap 0 (homed on the stream's leaf).
	m.home, m.pinned = m.home[:0], m.pinned[:0]
	for _, pl := range movable {
		home := -1
		if p := pl.pred; len(p.Tables) != 1 || p.Tables[0] != leafTable {
			h, ok := f.homeStep(p)
			if !ok {
				return false, errBadPred(p)
			}
			home = max(h, startStep)
		}
		m.home, m.pinned = append(m.home, home), append(m.pinned, -1)
	}

	// Pinning loop: compose stuck selections into their home modules.
	m.pins = m.pins[:0]
	for iter := 0; iter <= len(movable); iter++ {
		// Compose pinned selections onto their home modules, per step in
		// rank order.
		m.aug = append(m.aug[:0], m.mods...)
		for _, i := range m.pins {
			s := m.pinned[i] - startStep
			m.aug[s] = cost.Compose(m.aug[s], o.model.SelectionModule(movable[i].pred, leafCard))
		}
		m.groups = groupModules(m.groups, m.aug, startStep)

		newPins := false
		for i, pl := range movable {
			if m.pinned[i] >= 0 || m.home[i] < 0 {
				continue // pinned already, or leaf-homed: gap 0 always legal, never stuck
			}
			minGap := gapAfterStep(m.groups, m.home[i])
			g := desiredGap(m.groups, o.selRank(pl.pred, leafCard))
			if g < minGap {
				m.pinned[i] = m.home[i]
				m.pins = append(m.pins, i)
				newPins = true
			}
		}
		if !newPins {
			break
		}
		slices.SortFunc(m.pins, func(a, b int) int {
			if c := cmp.Compare(m.pinned[a], m.pinned[b]); c != 0 {
				return c
			}
			return o.compareSelections(movable[a].pred, movable[b].pred, leafCard)
		})
	}

	// Final placement.
	m.assign = m.assign[:0]
	changed := false
	for i, pl := range movable {
		pos := m.pinned[i]
		if pos < 0 {
			g := desiredGap(m.groups, o.selRank(pl.pred, leafCard))
			if m.home[i] >= 0 {
				g = max(g, gapAfterStep(m.groups, m.home[i]))
			}
			if pos = -1; g > 0 {
				pos = m.groups[g-1].lastStep
			}
		}
		m.assign = append(m.assign, placed{pred: pl.pred, pos: pos})
		changed = changed || pos != pl.pos
	}

	// Rewrite the stream's filter lists.
	*gap0 = (*gap0)[:0]
	for i := startStep; i < len(f.Steps); i++ {
		f.Steps[i].AfterFilters = f.Steps[i].AfterFilters[:0]
	}
	slices.SortStableFunc(m.assign, func(a, b placed) int {
		if c := cmp.Compare(a.pos, b.pos); c != 0 {
			return c
		}
		return o.compareSelections(a.pred, b.pred, leafCard)
	})
	stale := false
	for i, pl := range m.assign {
		if pl != movable[i] && !stale {
			// The first difference, if only in order, lies in the lowest list
			// rewritten differently: the lower of the two it is placed in.
			stale = true
			m.stale = min(m.stale, streamLevel(k, min(pl.pos, movable[i].pos)))
		}
		if pl.pos < 0 {
			*gap0 = append(*gap0, pl.pred)
			continue
		}
		f.Steps[pl.pos].AfterFilters = append(f.Steps[pl.pos].AfterFilters, pl.pred)
	}
	return changed, nil
}

// compareSelections orders two selections on a stream by rank, then ID.
func (o *Optimizer) compareSelections(a, b *query.Predicate, leafCard float64) int {
	ra, rb := o.selRank(a, leafCard), o.selRank(b, leafCard)
	if !cost.ApproxEq(ra, rb) {
		return cmp.Compare(ra, rb)
	}
	return cmp.Compare(a.ID, b.ID)
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
