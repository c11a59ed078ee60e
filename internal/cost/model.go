// Package cost implements the paper's cost model (§3.2, revised from the
// "global" model of HS93a): strictly linear join costs of the form
// k·{R} + l·{S} + m with *per-input* differential costs and *per-input*
// selectivities, the rank metric, group ranks for out-of-order join pairs,
// and value-based selectivities under predicate caching (§5.1).
//
// All costs are in random-I/O units — the same unit the executor reports, so
// estimated and measured costs are directly comparable.
package cost

import (
	"fmt"
	"math"

	"predplace/internal/catalog"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// Cost-model constants, shared with the executor's synthetic charging so the
// estimates and the measured charged costs agree in shape.
const (
	// SeqPageCost is the charge for reading one heap page sequentially.
	SeqPageCost = 1.0
	// RandPageCost is the charge for one random page fetch (heap tuple fetch
	// driven by an index probe).
	RandPageCost = 1.0
	// ProbeCost is the charge per B-tree probe (leaf access; upper levels
	// are assumed cached — the paper prices a probe at "typically 3 I/Os or
	// less"; our simulated tree charges one leaf I/O).
	ProbeCost = 1.0
	// SortSpillPerTuple simulates external-sort spill traffic per tuple
	// (write + read of runs at ~78 tuples per 8 KiB page ≈ 2/78).
	SortSpillPerTuple = 0.026
	// HashSpillPerTuple simulates Grace-hash partition traffic per tuple on
	// each side (write + read of partitions).
	HashSpillPerTuple = 0.026
	// BloomAddPerTuple and BloomProbePerTuple charge predicate-transfer
	// Bloom filter insertions and probes (CPU-only, but the model prices
	// them so transfer is never free; an add hashes once and touches a
	// cache line eight times, a probe does the same read-only).
	BloomAddPerTuple   = 0.002
	BloomProbePerTuple = 0.001
	// TopKCmpPerTuple prices one bounded-heap comparison round (offer a row
	// against the current k-th boundary, sift on accept). CPU-only and tiny
	// next to a page fetch, but nonzero so a TopK plan never looks free and
	// the n·log₂(k+1) heap term can discriminate between candidate roots.
	TopKCmpPerTuple = 0.001
)

// Model estimates cardinalities and costs over plan trees.
type Model struct {
	// Cat supplies table statistics and function metadata.
	Cat *catalog.Catalog
	// Caching reflects whether predicate caching is enabled: join
	// selectivities used in rank calculations become value-based and are
	// bounded by 1, and expensive-filter invocation estimates are capped by
	// the distinct count of the filter's argument columns (§5.1).
	Caching bool
	// Transfer, when non-nil, makes scans reflect predicate transfer: each
	// receiving table's cardinality shrinks by its combined filter
	// selectivity and its cost grows by the per-record probe charge. Set by
	// the optimizer (ComputeTransfer) before planning, so every placement
	// and join-order decision is taken under transfer-adjusted estimates —
	// an expensive predicate whose survivors seed a filter exports its
	// selectivity, which moves the (s−1)/c rank knife-edge.
	Transfer *TransferInfo
	// stats holds the statistics of the tables bound for one planning.
	stats []tableStats
	// scaled marks a copy made by Scaled: it reads every predicate's
	// selectivity times selScale, clamped to a probability, and its per-tuple
	// cost times costScale. The base model reads both as the predicate
	// carries them.
	scaled              bool
	selScale, costScale float64
}

// tableStats is what pricing reads of a base table.
type tableStats struct {
	tab         *catalog.Table
	card, pages float64
}

func statsOf(tab *catalog.Table) tableStats {
	return tableStats{tab: tab, card: float64(tab.Card), pages: float64(tab.Pages())}
}

// Bind reads the statistics of the tables one planning prices, once: until
// the planning unbinds them with Bind(nil), every candidate is priced from
// this reading instead of a catalog lookup (which takes its lock) and a page
// count (the disk's) per leaf visit. An unbound model prices from the catalog
// as it stands.
func (m *Model) Bind(tabs []*catalog.Table) {
	m.stats = m.stats[:0]
	for _, tab := range tabs {
		m.stats = append(m.stats, statsOf(tab))
	}
}

// table returns the statistics of a base table; a query's handful of bound
// tables is searched linearly.
func (m *Model) table(name string) (tableStats, error) {
	for _, s := range m.stats {
		if s.tab.Name == name {
			return s, nil
		}
	}
	tab, err := m.Cat.Table(name)
	if err != nil {
		return tableStats{}, err
	}
	return statsOf(tab), nil
}

// transferSel returns the combined received-filter selectivity for a base
// table (1 when transfer is off or the table receives nothing).
func (m *Model) transferSel(table string) float64 {
	if m.Transfer == nil {
		return 1
	}
	if s, ok := m.Transfer.Sel[table]; ok && s > 0 && s < 1 {
		return s
	}
	return 1
}

// transferRecv returns the filter columns a base table receives (nil when
// transfer is off).
func (m *Model) transferRecv(table string) []string {
	if m.Transfer == nil {
		return nil
	}
	return m.Transfer.Recv[table]
}

// NewModel builds a cost model over the given catalog.
func NewModel(cat *catalog.Catalog, caching bool) *Model {
	return &Model{Cat: cat, Caching: caching}
}

// Scaled returns a copy of m that prices every predicate as if its
// selectivity were selScale times the estimate, clamped to [0, 1] (also at
// ×1), and its per-tuple cost costScale times the estimate — an estimate-error
// scenario that leaves the predicates themselves untouched, so any number of
// scaled copies price one query at once. The copy shares m's bound tables and
// transfer state; rebinding m while a copy is in use is the caller's error.
func (m *Model) Scaled(selScale, costScale float64) *Model {
	c := *m
	c.scaled, c.selScale, c.costScale = true, selScale, costScale
	return &c
}

// Sel returns p's selectivity as the model prices it.
func (m *Model) Sel(p *query.Predicate) float64 {
	if !m.scaled {
		return p.Selectivity
	}
	switch s := p.Selectivity * m.selScale; {
	case s < 0:
		return 0
	case s > 1:
		return 1
	default:
		return s
	}
}

// PerTuple returns p's per-tuple cost as the model prices it.
func (m *Model) PerTuple(p *query.Predicate) float64 {
	if !m.scaled {
		return p.CostPerTuple
	}
	return p.CostPerTuple * m.costScale
}

// Rank is p's rank, (selectivity − 1)/cost, as the model prices it.
func (m *Model) Rank(p *query.Predicate) float64 {
	return query.Rank(m.Sel(p), m.PerTuple(p))
}

// distinctOf returns the distinct-value statistic of a base column, or 0 if
// unknown.
func (m *Model) distinctOf(ref query.ColRef) float64 {
	st, err := m.table(ref.Table)
	if err != nil {
		return 0
	}
	col, err := st.tab.Column(ref.Col)
	if err != nil {
		return 0
	}
	return float64(col.Distinct)
}

// FilterInvocations estimates how many times a filter's predicate is
// actually evaluated on a stream of inputCard tuples. With caching on and a
// cacheable predicate, invocations are capped by the number of distinct
// argument bindings (product of the argument columns' distinct counts).
func (m *Model) FilterInvocations(p *query.Predicate, inputCard float64) float64 {
	if inputCard < 0 {
		inputCard = 0
	}
	if !m.Caching || p.Kind != query.KindFunc || p.Func == nil || !p.Func.Cacheable {
		return inputCard
	}
	distinct := 1.0
	for _, a := range p.Args {
		d := m.distinctOf(a)
		if d <= 0 {
			return inputCard
		}
		distinct *= d
	}
	return math.Min(inputCard, distinct)
}

// FilterStats returns the output cardinality and the added cost of applying
// predicate p to a stream of inputCard tuples.
func (m *Model) FilterStats(p *query.Predicate, inputCard float64) (outCard, addedCost float64) {
	outCard = inputCard * m.Sel(p)
	addedCost = m.FilterInvocations(p, inputCard) * m.PerTuple(p)
	return outCard, addedCost
}

// streamInfo carries what Annotate computes per subtree.
type streamInfo struct {
	card float64
	cost float64
}

// Annotate recomputes EstCard and EstCost bottom-up over every node of the
// tree. It is the single source of truth for plan costs — the per-node
// formulas live only below it — and what the migration re-costing pass,
// Robust's corner scoring and the tests call.
func (m *Model) Annotate(n plan.Node) error {
	_, err := m.annotate(n, nil)
	return err
}

// AnnotateAbove prices only the nodes of n above the given subtrees, taking
// each priced subtree's stored Card()/Cost() as its stream: the System R DP
// prices a candidate in time proportional to the nodes it adds over
// subplans it has already priced. The caller vouches that every priced node
// was annotated by this model — the same scale, predicate estimates and
// transfer state; anything else (a tree priced on another scaled copy, a
// migration that moves filters) must go back through Annotate.
func (m *Model) AnnotateAbove(n plan.Node, priced ...plan.Node) error {
	_, err := m.annotate(n, priced)
	return err
}

func (m *Model) annotate(n plan.Node, priced []plan.Node) (streamInfo, error) {
	for _, p := range priced {
		if p == n {
			return streamInfo{card: n.Card(), cost: n.Cost()}, nil
		}
	}
	switch t := n.(type) {
	case *plan.SeqScan:
		tab, err := m.table(t.Table)
		if err != nil {
			return streamInfo{}, err
		}
		info := streamInfo{card: tab.card, cost: tab.pages * SeqPageCost}
		// Received transfer filters: every record is probed before the
		// full-row decode, and only the filtered fraction flows upstream.
		t.TransferRecv, t.TransferSel = nil, 0
		if recv := m.transferRecv(t.Table); len(recv) > 0 {
			info.cost += tab.card * float64(len(recv)) * BloomProbePerTuple
			info.card *= m.transferSel(t.Table)
			t.TransferRecv, t.TransferSel = recv, m.transferSel(t.Table)
		}
		t.EstCard, t.EstCost = info.card, info.cost
		return info, nil

	case *plan.IndexScan:
		tab, err := m.table(t.Table)
		if err != nil {
			return streamInfo{}, err
		}
		card := tab.card
		if t.Matched != nil {
			card *= m.Sel(t.Matched)
		}
		// One probe plus a random heap fetch per matching tuple; full-index
		// scans (no bounds) walk all leaves plus fetch every tuple.
		cost := ProbeCost + card*RandPageCost
		if t.Eq == nil && t.Lo == nil && t.Hi == nil {
			leaves := tab.card / 256
			cost = leaves*RandPageCost + card*RandPageCost
		}
		// Transfer filters are probed on the already-fetched rows (the
		// random I/O is paid either way); pruning shrinks the output.
		t.TransferRecv, t.TransferSel = nil, 0
		if recv := m.transferRecv(t.Table); len(recv) > 0 {
			cost += card * float64(len(recv)) * BloomProbePerTuple
			card *= m.transferSel(t.Table)
			t.TransferRecv, t.TransferSel = recv, m.transferSel(t.Table)
		}
		info := streamInfo{card: card, cost: cost}
		t.EstCard, t.EstCost = info.card, info.cost
		return info, nil

	case *plan.Filter:
		in, err := m.annotate(t.Input, priced)
		if err != nil {
			return streamInfo{}, err
		}
		outCard, added := m.FilterStats(t.Pred, in.card)
		info := streamInfo{card: outCard, cost: in.cost + added}
		t.EstCard, t.EstCost = info.card, info.cost
		return info, nil

	case *plan.Join:
		return m.annotateJoin(t, priced)

	case *plan.TopK:
		in, err := m.annotate(t.Input, priced)
		if err != nil {
			return streamInfo{}, err
		}
		// The heap consumes the whole input (n·log₂(held+1) comparisons) but
		// holds and releases at most k rows — all of them when there is no
		// bound, which prices the full sort.
		held := t.Held(in.card)
		info := streamInfo{
			card: held,
			cost: in.cost + in.card*math.Log2(held+1)*TopKCmpPerTuple,
		}
		t.EstCard, t.EstCost = info.card, info.cost
		return info, nil

	case *plan.Limit:
		in, err := m.annotate(t.Input, priced)
		if err != nil {
			return streamInfo{}, err
		}
		// Early termination: the limit stops pulling once k rows arrive, so
		// under a uniform-production assumption only the k/card fraction of
		// the input's work is ever paid. This is the one place estimated cost
		// legitimately shrinks below the input's (plan.Validate sanctions it).
		k := float64(t.K)
		info := streamInfo{card: math.Min(in.card, k), cost: in.cost}
		if in.card > k && in.card > 0 {
			info.cost = in.cost * (k / in.card)
		}
		t.EstCard, t.EstCost = info.card, info.cost
		return info, nil
	}
	return streamInfo{}, fmt.Errorf("cost: unknown node type %T", n)
}

// JoinSel returns the tuple-based total selectivity s of a join predicate.
func (m *Model) JoinSel(p *query.Predicate) float64 {
	if p == nil {
		return 1 // cross product
	}
	return m.Sel(p)
}

func (m *Model) annotateJoin(j *plan.Join, priced []plan.Node) (streamInfo, error) {
	outer, err := m.annotate(j.Outer, priced)
	if err != nil {
		return streamInfo{}, err
	}
	inner, err := m.annotate(j.Inner, priced)
	if err != nil {
		return streamInfo{}, err
	}
	s := m.JoinSel(j.Primary)
	R, S := outer.card, inner.card

	var cost float64
	var outCard float64

	switch j.Method {
	case plan.IndexNestLoop:
		// Probes run against the *base* inner table's index; inner-side
		// filters apply to fetched matches. The inner subtree is never
		// scanned, so its scan cost is not added.
		table, ok := plan.ScanTable(j.Inner)
		if !ok {
			return streamInfo{}, fmt.Errorf("cost: index-nested-loop inner is not a base table")
		}
		tab, err := m.table(table)
		if err != nil {
			return streamInfo{}, err
		}
		matches := s * R * tab.card
		cost = outer.cost + R*ProbeCost + matches*RandPageCost
		outCard = matches
		plan.BaseFilters(j.Inner, func(f *query.Predicate) {
			if f != j.Primary {
				c, added := m.FilterStats(f, outCard)
				outCard = c
				cost += added
			}
		})

	case plan.NestLoop:
		// The inner (a possibly filtered base table) is rescanned once per
		// outer tuple; the page count of the base table is constant
		// regardless of predicate placement (§3.2), which is exactly why NL
		// fits the linear cost model.
		table, ok := plan.ScanTable(j.Inner)
		if !ok {
			return streamInfo{}, fmt.Errorf("cost: nested-loop inner is not a base table")
		}
		tab, err := m.table(table)
		if err != nil {
			return streamInfo{}, err
		}
		passes := math.Max(R, 1)
		cost = outer.cost + passes*tab.pages*SeqPageCost
		// Inner-side filters are re-evaluated on every pass; with caching,
		// total invocations are bounded by distinct argument bindings.
		streamCard := tab.card
		// The rescanned inner probes its received transfer filters on every
		// pass (the executor rebuilds the scan per outer tuple), pruning the
		// stream before the inner-side filters see it.
		if recv := m.transferRecv(table); len(recv) > 0 {
			cost += passes * streamCard * float64(len(recv)) * BloomProbePerTuple
			streamCard *= m.transferSel(table)
		}
		plan.BaseFilters(j.Inner, func(f *query.Predicate) {
			inv := m.FilterInvocations(f, passes*streamCard)
			cost += inv * m.PerTuple(f)
			streamCard *= m.Sel(f)
		})
		pairs := R * streamCard
		if j.Primary != nil && j.Primary.IsExpensive() {
			inv := m.FilterInvocations(j.Primary, pairs)
			cost += inv * m.PerTuple(j.Primary)
		}
		outCard = s * R * streamCard

	case plan.HashJoin:
		cost = outer.cost + inner.cost + S*HashSpillPerTuple + R*HashSpillPerTuple
		if j.Primary != nil && j.Primary.IsExpensive() {
			pairs := R * S
			cost += m.FilterInvocations(j.Primary, pairs) * m.PerTuple(j.Primary)
		}
		outCard = s * R * S

	case plan.MergeJoin:
		cost = outer.cost + inner.cost
		if j.SortOuter {
			cost += R * SortSpillPerTuple
		}
		if j.SortInner {
			cost += S * SortSpillPerTuple
		}
		if j.Primary != nil && j.Primary.IsExpensive() {
			pairs := R * S
			cost += m.FilterInvocations(j.Primary, pairs) * m.PerTuple(j.Primary)
		}
		outCard = s * R * S

	default:
		return streamInfo{}, fmt.Errorf("cost: unknown join method %v", j.Method)
	}

	j.EstCard, j.EstCost = outCard, cost
	return streamInfo{card: outCard, cost: cost}, nil
}
