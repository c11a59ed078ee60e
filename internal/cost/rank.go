package cost

import (
	"math"

	"predplace/internal/plan"
	"predplace/internal/query"
)

// Module is a stream operator viewed through the lens of the rank metric:
// a per-stream-tuple selectivity and a per-stream-tuple differential cost.
// Selections and (per-input views of) joins are both Modules; the Predicate
// Migration algorithm composes adjacent out-of-rank-order join modules into
// groups using Compose.
type Module struct {
	Sel  float64
	Cost float64
}

// Rank returns (selectivity − 1)/cost with the conventional ±∞ limits.
func (m Module) Rank() float64 { return query.Rank(m.Sel, m.Cost) }

// Compose fuses module a followed by module b into one group module:
//
//	sel  = sel(a)·sel(b)
//	cost = cost(a) + sel(a)·cost(b)
//
// which yields the paper's group rank (§4.4):
// (s₁s₂ − 1) / (c₁ + s₁c₂).
func Compose(a, b Module) Module {
	return Module{Sel: a.Sel * b.Sel, Cost: a.Cost + a.Sel*b.Cost}
}

// GroupRank is the rank of the composition of a then b.
func GroupRank(a, b Module) float64 { return Compose(a, b).Rank() }

// InputStats is a join's behaviour as seen from one of its inputs: the
// selectivity the join applies to that input stream and the differential
// cost per tuple of that input — the two quantities the revised (non-global)
// cost model of §3.2 tracks separately per input.
type InputStats struct {
	Sel  float64
	Cost float64
}

// Rank of the join with respect to this input.
func (s InputStats) Rank() float64 { return query.Rank(s.Sel, s.Cost) }

// Module converts the stats to a Module for grouping.
func (s InputStats) Module() Module { return Module{Sel: s.Sel, Cost: s.Cost} }

// JoinInputStats computes the per-input selectivities and differential costs
// of an annotated join node. The join's children must carry current
// estimates (run Annotate first).
//
// Selectivities follow §3.2: sel over R is s·{S} (tuple-based), computed as
// outCard/{R}; under predicate caching they are computed on values and
// bounded by 1 (§5.1). Differential costs follow the linear model; expensive
// primary join predicates add c_p·{other side} using plan-time cardinalities
// (§5.2's deliberate under-estimate).
func (m *Model) JoinInputStats(j *plan.Join) (outer, inner InputStats) {
	R := math.Max(j.Outer.Card(), 1e-9)
	S := math.Max(j.Inner.Card(), 1e-9)
	out := j.EstCard

	outer.Sel = out / R
	inner.Sel = out / S
	if m.Caching && j.Primary != nil && j.Primary.Kind == query.KindJoinCmp {
		// Value-based selectivity: s · number_of_values(other.col), ≤ 1.
		s := m.Sel(j.Primary)
		dl := math.Min(m.distinctOf(j.Primary.Left), R)
		dr := math.Min(m.distinctOf(j.Primary.Right), S)
		// Left/Right orientation: whichever side belongs to the outer stream.
		// (Asked of the inner subtree: in a left-deep plan it is one table,
		// while the outer grows with the plan.)
		lv, rv := dl, dr
		if plan.HasTable(j.Inner, j.Primary.Left.Table) {
			lv, rv = dr, dl
		}
		outer.Sel = math.Min(1, s*rv)
		inner.Sel = math.Min(1, s*lv)
	}

	var cp float64 // expensive primary per-pair cost
	if j.Primary != nil && j.Primary.IsExpensive() {
		cp = m.PerTuple(j.Primary)
	}

	switch j.Method {
	case plan.IndexNestLoop:
		matchesPerOuter := out / R
		outer.Cost = ProbeCost + matchesPerOuter*RandPageCost + cp*S
		inner.Cost = 0 + cp*R
	case plan.NestLoop:
		pages := m.innerBasePages(j)
		outer.Cost = pages*SeqPageCost + cp*S
		inner.Cost = 0 + cp*R
	case plan.HashJoin:
		outer.Cost = HashSpillPerTuple + cp*S
		inner.Cost = HashSpillPerTuple + cp*R
	case plan.MergeJoin:
		if j.SortOuter {
			outer.Cost = SortSpillPerTuple
		}
		if j.SortInner {
			inner.Cost = SortSpillPerTuple
		}
		outer.Cost += cp * S
		inner.Cost += cp * R
	}
	return outer, inner
}

// innerBasePages returns the page count of the nested-loop join's inner base
// table (constant w.r.t. predicate placement).
func (m *Model) innerBasePages(j *plan.Join) float64 {
	table, ok := plan.ScanTable(j.Inner)
	if !ok {
		return 0
	}
	tab, err := m.table(table)
	if err != nil {
		return 0
	}
	return tab.pages
}

// SelectionModule views a selection predicate as a stream module, honouring
// caching: with caching on, the effective per-stream-tuple cost of a
// cacheable predicate shrinks when the stream has fewer distinct bindings
// than tuples.
func (m *Model) SelectionModule(p *query.Predicate, streamCard float64) Module {
	cost := m.PerTuple(p)
	if m.Caching && streamCard > 0 {
		inv := m.FilterInvocations(p, streamCard)
		cost = m.PerTuple(p) * inv / streamCard
	}
	return Module{Sel: m.Sel(p), Cost: cost}
}
