package optimizer

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// subplan is one retained entry of the dynamic-programming table.
type subplan struct {
	root plan.Node
	// base is root beneath its top filter chain — the access path or join the
	// System R DP built it on — and chain that chain's predicates, bottom
	// first: what a join over this subplan may hoist.
	base  plan.Node
	chain []*query.Predicate
	set   uint32       // bitset of q.Tables indices
	order query.ColRef // output ordering column (zero value = unordered)
	cost  float64
	card  float64
	// buried marks expensive predicates sitting below some join in this
	// subplan — the paper's "unpruneable" condition: PullRank declined a
	// pullup, so Predicate Migration must see this subplan later.
	buried uint64
}

// planSystemR runs the left-deep System R enumeration with the configured
// placement algorithm.
func (o *Optimizer) planSystemR(q *query.Query) (plan.Node, *Info, error) {
	base, err := o.basePaths(q)
	if err != nil {
		return nil, nil, err
	}
	return o.systemR(q, base)
}

// basePaths generates every table's access paths. Apart from NaivePushDown
// they do not depend on the placement algorithm, so one set can seed several
// enumerations run under the same estimates.
func (o *Optimizer) basePaths(q *query.Query) ([][]*subplan, error) {
	if err := fitsSystemR(q); err != nil {
		return nil, err
	}
	base := make([][]*subplan, len(q.Tables))
	for i := range q.Tables {
		sps, err := o.accessPathsPlace(q, i, true)
		if err != nil {
			return nil, err
		}
		base[i] = sps
	}
	return base, nil
}

// fitsSystemR reports a query too wide for the System R enumeration, whose
// table holds an entry per subset of the tables.
func fitsSystemR(q *query.Query) error {
	if n := len(q.Tables); n > 12 {
		return fmt.Errorf("optimizer: %d-way join exceeds the System R enumerator's limit", n)
	}
	return nil
}

// systemR is the enumeration over the given access paths and its finish.
func (o *Optimizer) systemR(q *query.Query, base [][]*subplan) (plan.Node, *Info, error) {
	finalists, info, err := o.enumerate(q, base)
	if err != nil {
		return nil, nil, err
	}
	root, err := o.finalize(q, finalists, info)
	return root, info, err
}

// enumerate is the DP over the given access paths: it returns the plans
// retained for the full table set, which finalize chooses among.
func (o *Optimizer) enumerate(q *query.Query, base [][]*subplan) ([]*subplan, *Info, error) {
	n := len(q.Tables)
	info := &Info{}

	if n == 1 {
		info.PlansRetained = len(base[0])
		finalists := []*subplan{cheapest(base[0])}
		if o.opts.TopK.indexOrder() {
			// Keep every access path alive for finalize: a full index scan
			// on the ORDER BY key loses on unwrapped cost but can win once
			// an early-terminating Limit prices it.
			finalists = base[0]
		}
		return finalists, info, nil
	}

	full := uint32(1)<<uint(n) - 1
	table := make([][]*subplan, full+1) // by table bitset
	for i := range q.Tables {
		table[1<<uint(i)] = base[i]
	}
	var (
		c    candidate
		kept []*subplan // the entry under construction; the table gets a copy
	)
	for mask := uint32(1); mask <= full; mask++ {
		if bits.OnesCount32(mask) < 2 {
			continue
		}
		kept = kept[:0]
		for i := 0; i < n; i++ {
			bit := uint32(1) << uint(i)
			if mask&bit == 0 {
				continue
			}
			outerMask := mask &^ bit
			sh := o.skel.shape(outerMask, i)
			nl := sh.nestLoop(o.model)
			for _, op := range table[outerMask] {
				for _, ip := range base[i] {
					for k := 0; k <= len(sh.eq); k++ {
						sp, err := o.buildJoin(&c, op, ip, sh.method(k, &nl))
						if err != nil {
							return nil, nil, err
						}
						if sp != nil {
							kept = o.prune(kept, &c)
						}
					}
				}
			}
		}
		table[mask] = slices.Clone(kept)
		info.UnpruneableRetained += o.settle(table[mask])
	}
	for _, sps := range table {
		info.PlansRetained += len(sps)
	}
	return table[full], info, nil
}

// finalize applies the Predicate Migration post-pass (when selected) to every
// retained final plan and returns the cheapest. For a statement with ORDER BY
// it is also the wrap site: wrapping happens after migration (Flatten cannot
// stream a TopK/Limit root), with the baseline best plan first so ties keep
// the plan the statement gets without the clause, and other finalists
// considered only when their output order satisfies the ORDER BY.
func (o *Optimizer) finalize(q *query.Query, finalists []*subplan, info *Info) (plan.Node, error) {
	if len(finalists) == 0 {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	var roots []plan.Node
	var baseline plan.Node
	if o.opts.Algorithm != Migration {
		baseline = cheapest(finalists).root
		if o.opts.TopK.unordered() {
			return baseline, nil
		}
		for _, sp := range finalists {
			roots = append(roots, sp.root)
		}
	} else {
		bestCost := math.Inf(1)
		for _, sp := range finalists {
			migrated, passes, err := o.migrate(sp.root)
			if err != nil {
				return nil, err
			}
			info.MigrationPasses += passes
			roots = append(roots, migrated)
			if migrated.Cost() < bestCost {
				baseline, bestCost = migrated, migrated.Cost()
			}
		}
		if o.opts.TopK.unordered() {
			return baseline, nil
		}
	}
	cands := []plan.Node{baseline}
	for _, r := range roots {
		if r != baseline && o.orderSatisfied(r) {
			cands = append(cands, r)
		}
	}
	return o.chooseTopK(cands, info)
}

func cheapest(sps []*subplan) *subplan {
	best := sps[0]
	for _, sp := range sps[1:] {
		if sp.cost < best.cost {
			best = sp
		}
	}
	return best
}

// prune applies the DP's retention rule to c's candidate as it is built,
// in generation order: per (order, bucket) the first of equals is kept and
// a strictly cheaper candidate replaces it. A bucket is the order column
// plus, under Migration, the buried set, so plans with a non-empty buried
// set survive pruning they would otherwise lose (the unpruneable retention
// of §4.4). A candidate that enters a bucket is copied out of the scratch,
// one that replaces an entry is copied into that entry's storage (nothing
// else refers to a list under construction), and a losing one leaves
// nothing behind. Each list prune builds must start empty and be built
// from one candidate.
func (o *Optimizer) prune(kept []*subplan, c *candidate) []*subplan {
	c.owned = c.owned[:len(kept)]
	sp := &c.sp
	for i, cur := range kept {
		if cur.order == sp.order && o.bucket(cur) == o.bucket(sp) {
			if sp.cost < cur.cost {
				c.keep(c.owned[i])
			}
			return kept
		}
	}
	k := c.keep(nil)
	c.owned = append(c.owned, k)
	return append(kept, &k.sp)
}

// bucket is the part of the buried set that keys retention: all of it under
// Migration, none of it otherwise.
func (o *Optimizer) bucket(sp *subplan) uint64 {
	if o.opts.Algorithm == Migration && !o.opts.DisableUnpruneable {
		return sp.buried
	}
	return 0
}

// settle puts what prune kept in its deterministic order — cost, then order
// column, then buried signature, so equal-cost ties always resolve the same
// way and plans are reproducible run to run — and returns how many entries
// survive only due to their buried signature.
func (o *Optimizer) settle(kept []*subplan) (unpr int) {
	for _, sp := range kept {
		for _, other := range kept {
			if o.bucket(sp) != 0 && other.order == sp.order && other.cost < sp.cost {
				unpr++
				break
			}
		}
	}
	slices.SortFunc(kept, func(a, b *subplan) int {
		if !cost.ApproxEq(a.cost, b.cost) {
			return cmp.Compare(a.cost, b.cost)
		}
		if c := compareCols(a.order, b.order); c != 0 {
			return c
		}
		return cmp.Compare(a.buried, b.buried)
	})
	return unpr
}

// compareCols orders two columns as their String forms ("table.col") would
// compare, without building them.
func compareCols(a, b query.ColRef) int {
	at := func(c query.ColRef, i int) byte {
		switch {
		case i < len(c.Table):
			return c.Table[i]
		case i == len(c.Table):
			return '.'
		}
		return c.Col[i-len(c.Table)-1]
	}
	na, nb := len(a.Table)+1+len(a.Col), len(b.Table)+1+len(b.Col)
	for i := 0; i < na && i < nb; i++ {
		if x, y := at(a, i), at(b, i); x != y {
			return cmp.Compare(x, y)
		}
	}
	return cmp.Compare(na, nb)
}

// accessPathsPlace generates base subplans for table index i: a sequential
// scan and one index scan per matching cheap selection, each with the
// remaining selections layered per the configured algorithm (cheap first,
// expensive rank-ordered above — at base level every algorithm but Naive
// agrees). withExpensive controls whether the table's expensive selections
// are attached (the LDL and Exhaustive enumerators place them explicitly).
func (o *Optimizer) accessPathsPlace(q *query.Query, i int, withExpensive bool) ([]*subplan, error) {
	t, tab := q.Tables[i], o.skel.tabs[i]
	cols := make([]query.ColRef, len(tab.Columns))
	for ci, c := range tab.Columns {
		cols[ci] = query.ColRef{Table: t, Col: c.Name}
	}
	sels := q.SelectionsOn(t)
	var cheap, exp []*query.Predicate
	for _, p := range sels {
		if p.IsExpensive() {
			if withExpensive {
				exp = append(exp, p)
			}
		} else {
			cheap = append(cheap, p)
		}
	}

	build := func(baseNode plan.Node, order query.ColRef, rest []*query.Predicate) (*subplan, error) {
		var preds []*query.Predicate
		if o.opts.Algorithm == NaivePushDown {
			preds = o.orderByRank(append(append([]*query.Predicate(nil), rest...), exp...), float64(tab.Card))
		} else {
			preds = append(preds, o.orderByRank(rest, float64(tab.Card))...)
			preds = append(preds, o.orderByRank(exp, float64(tab.Card))...)
		}
		root := chainFilters(baseNode, preds)
		if err := o.model.Annotate(root); err != nil {
			return nil, err
		}
		return &subplan{
			root: root, base: baseNode, chain: preds,
			set: 1 << uint(i), order: order,
			cost: root.Cost(), card: root.Card(),
		}, nil
	}

	var out []*subplan
	seq, err := build(&plan.SeqScan{Table: t, ColRefs: cols}, query.ColRef{}, cheap)
	if err != nil {
		return nil, err
	}
	out = append(out, seq)

	for _, p := range cheap {
		if p.Kind != query.KindSelCmp || !tab.HasIndex(p.Left.Col) || p.Value.Kind != expr.TInt {
			continue
		}
		is := &plan.IndexScan{Table: t, Col: p.Left.Col, Matched: p, ColRefs: cols}
		var order query.ColRef
		v := p.Value
		switch p.Op {
		case expr.OpEQ:
			is.Eq = &v
		case expr.OpLT, expr.OpLE:
			hi := v
			if p.Op == expr.OpLT {
				hi = expr.I(v.I - 1)
			}
			is.Hi = &hi
			order = p.Left
		case expr.OpGT, expr.OpGE:
			lo := v
			if p.Op == expr.OpGT {
				lo = expr.I(v.I + 1)
			}
			is.Lo = &lo
			order = p.Left
		default:
			continue
		}
		rest := make([]*query.Predicate, 0, len(cheap)-1)
		for _, c := range cheap {
			if c != p {
				rest = append(rest, c)
			}
		}
		sp, err := build(is, order, rest)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	// Top-k order propagation: a full ascending index scan on the ORDER BY
	// key delivers rows in query order with no sort node. On its own it loses
	// to a SeqScan (a random fetch per tuple), but under an ordered Limit
	// only the first k survivors' fetches are ever paid — finalize prices
	// that when it wraps the retained roots.
	if spec := o.opts.TopK; spec.indexOrder() && spec.Key.Table == t && tab.HasIndex(spec.Key.Col) {
		is := &plan.IndexScan{Table: t, Col: spec.Key.Col, ColRefs: cols}
		sp, err := build(is, *spec.Key, cheap)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}
