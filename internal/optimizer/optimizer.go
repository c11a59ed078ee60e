package optimizer

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// Algorithm selects the predicate-placement scheme (Table 1 of the paper).
type Algorithm int

// The placement algorithms, ordered roughly by eagerness to pull selections
// up (the paper's Figure 10 spectrum runs PushDown < PullRank ≈ Migration <
// LDL < PullUp).
const (
	// NaivePushDown pushes every selection to the scans in query order —
	// the pre-PushDown+ baseline without rank ordering.
	NaivePushDown Algorithm = iota
	// PushDown is the paper's PushDown+ (selection pushdown with
	// rank-ordered selections). Optimal for single-table queries.
	PushDown
	// PullUp pulls every expensive selection to the top of each subplan.
	PullUp
	// PullRank pulls selections above a join when their rank exceeds the
	// join's per-input rank; optimal for single-join queries.
	PullRank
	// Migration is Predicate Migration: PullRank during enumeration with
	// unpruneable subplan retention, then the series-parallel
	// (parallel-chains) algorithm applied to every root-to-leaf stream of
	// each retained plan until fixpoint.
	Migration
	// LDL treats expensive selections as joins with virtual relations and
	// orders left-deep trees, which forces pullup from join inners.
	LDL
	// LDLIKKBZ is LDL with the polynomial IK-KBZ join orderer of [KZ88]
	// instead of exhaustive ordering; acyclic query graphs only.
	LDLIKKBZ
	// Exhaustive enumerates every left-deep join order and every valid
	// interleaving of expensive selections — exponential; the oracle.
	Exhaustive
	// ExhaustiveBushy extends the oracle to bushy join trees (§3.1's sketch
	// for repairing LDL); hash and merge joins accept composite inners.
	ExhaustiveBushy
	// Robust scores candidate plans over an estimate-error interval
	// [sel/e, sel·e] (and the analogous interval on expensive-predicate
	// costs) instead of at the point estimate, picking the plan whose
	// worst-case cost across the interval's corners is smallest — plans
	// stable under mis-estimation win over plans optimal only if the
	// estimates are exactly right (after arXiv 2502.15181).
	Robust
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case NaivePushDown:
		return "NaivePushDown"
	case PushDown:
		return "PushDown"
	case PullUp:
		return "PullUp"
	case PullRank:
		return "PullRank"
	case Migration:
		return "PredicateMigration"
	case LDL:
		return "LDL"
	case LDLIKKBZ:
		return "LDL-IKKBZ"
	case Exhaustive:
		return "Exhaustive"
	case ExhaustiveBushy:
		return "ExhaustiveBushy"
	case Robust:
		return "Robust"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Algorithms lists every implemented algorithm in eagerness order.
func Algorithms() []Algorithm {
	return []Algorithm{NaivePushDown, PushDown, PullUp, PullRank, Migration, LDL, LDLIKKBZ, Exhaustive, ExhaustiveBushy, Robust}
}

// Options configures an optimization run.
type Options struct {
	// Algorithm selects the placement scheme.
	Algorithm Algorithm
	// Caching tells the cost model predicate caching will be enabled at
	// execution: value-based join selectivities bounded by 1 (§5.1) and
	// distinct-capped invocation estimates.
	Caching bool
	// MaxMigrationPasses bounds the migration fixpoint loop (default 24).
	MaxMigrationPasses int
	// DisableUnpruneable turns off the §4.4 unpruneable-subplan retention
	// (ablation: Migration then post-processes only the plans ordinary
	// pruning kept, and can miss group pullups whose join order was pruned).
	DisableUnpruneable bool
	// Transfer tells the cost model the executor will run the predicate-
	// transfer prepass: scan cardinalities shrink by the received-filter
	// selectivities and probe/build work is charged, so placement and join
	// ordering are decided under transfer-adjusted estimates.
	Transfer bool
	// TopK, when non-nil, is the statement's ORDER BY and/or LIMIT: the
	// chosen plan is wrapped in a TopK root (a bounded heap; the sort when
	// there is no LIMIT) — or in an early-terminating Limit, when there is
	// no ORDER BY or a retained plan already delivers rows in its order.
	TopK *TopKSpec
	// Feedback overlays promoted feedback observations (observed
	// selectivities from past executions) onto the analyzed query before
	// planning; refreshed function metadata flows in through the catalog
	// regardless.
	Feedback bool
	// RobustE is the Robust algorithm's error-interval half-width e: each
	// candidate is scored over selectivities [sel/e, sel·e] and expensive
	// costs [cost/e, cost·e]. ≤ 1 uses DefaultRobustE. Ignored by the other
	// algorithms.
	RobustE float64
}

// Info reports planning diagnostics.
type Info struct {
	Algorithm Algorithm
	// EstCost and EstCard are the chosen plan's estimates.
	EstCost float64
	EstCard float64
	// PlansRetained counts subplans kept across all DP entries.
	PlansRetained int
	// UnpruneableRetained counts subplans kept only because they were
	// unpruneable (Predicate Migration's plan-space enlargement).
	UnpruneableRetained int
	// MigrationPasses counts stream passes until fixpoint.
	MigrationPasses int
	// TransferClasses counts the join-key equivalence classes the transfer
	// estimate found (0 when transfer is off or inapplicable), and
	// TransferPrepassCost is the estimated prepass cost included in EstCost.
	TransferClasses     int
	TransferPrepassCost float64
	// TopKKind reports the planned root: "topk" (heap over the full input),
	// "limit" (early termination), or "" (no ORDER BY or LIMIT).
	TopKKind string
	// RobustE and RobustWorst report the Robust algorithm's error-interval
	// half-width and the chosen plan's worst-case cost over that interval
	// (both 0 for the other algorithms). RobustCandidates counts the
	// distinct plan shapes scored.
	RobustE          float64
	RobustWorst      float64
	RobustCandidates int
	// Elapsed is the planning wall time.
	Elapsed time.Duration
}

// Optimizer plans queries against a catalog.
type Optimizer struct {
	cat   *catalog.Catalog
	model *cost.Model
	opts  Options
	// skel is the query under planning's estimate-independent skeleton.
	skel *skeleton
	// mig is the Predicate Migration pass's reused state, shared with the
	// copy Robust plans its first scaling through (the other two, running
	// beside it, have their own).
	mig *migration
}

// New creates an optimizer.
func New(cat *catalog.Catalog, opts Options) *Optimizer {
	if opts.MaxMigrationPasses == 0 {
		opts.MaxMigrationPasses = 24
	}
	return &Optimizer{cat: cat, model: cost.NewModel(cat, opts.Caching), opts: opts, mig: &migration{}}
}

// Model exposes the optimizer's cost model (used by the harness to report
// estimated costs of foreign plans).
func (o *Optimizer) Model() *cost.Model { return o.model }

// Plan optimizes the query, returning the chosen plan tree (annotated with
// estimates) and planning diagnostics.
func (o *Optimizer) Plan(q *query.Query) (plan.Node, *Info, error) {
	start := time.Now()
	if err := query.Analyze(o.cat, q); err != nil {
		return nil, nil, err
	}
	if o.opts.Feedback {
		query.ApplyFeedback(o.cat.Feedback(), q)
	}
	if len(q.Tables) == 0 {
		return nil, nil, fmt.Errorf("optimizer: query has no tables")
	}
	var err error
	if o.skel, err = newSkeleton(o.cat, q); err != nil {
		return nil, nil, err
	}
	// The skeleton's one resolution of the tables is what the model prices
	// this planning from, and no later call.
	o.model.Bind(o.skel.tabs)
	defer o.model.Bind(nil)
	// Predicate transfer: estimate the filters once per query and plan the
	// whole search under the adjusted scans. The prepass's own cost is added
	// to the plan total below, never inside the recursive annotation — the
	// prepass runs once, not once per candidate subtree.
	o.model.Transfer = nil
	if o.opts.Transfer {
		ti, err := cost.ComputeTransfer(o.cat, q, o.opts.Caching)
		if err != nil {
			return nil, nil, err
		}
		o.model.Transfer = ti
	}
	var (
		root plan.Node
		info *Info
	)
	switch o.opts.Algorithm {
	case LDL:
		root, info, err = o.planLDL(q)
	case LDLIKKBZ:
		root, info, err = o.planLDLIKKBZ(q)
	case Exhaustive:
		root, info, err = o.planExhaustive(q)
	case ExhaustiveBushy:
		root, info, err = o.planExhaustiveBushy(q)
	case Robust:
		root, info, err = o.planRobust(q)
	default:
		root, info, err = o.planSystemR(q)
	}
	if err != nil {
		return nil, nil, err
	}
	if o.opts.TopK != nil {
		switch root.(type) {
		case *plan.TopK, *plan.Limit:
			// planSystemR's finalize already chose and wrapped the root.
		default:
			// The LDL and exhaustive planners pick their root by unwrapped
			// cost, as every algorithm does under a LIMIT without ORDER BY;
			// wrap it here so every plan's root orders and truncates.
			root, err = o.chooseTopK([]plan.Node{root}, info)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	// Enumeration leaves Join.ColRefs unset; only the plan that leaves the
	// planner needs its column lists.
	plan.FillCols(root)
	info.Algorithm = o.opts.Algorithm
	info.Elapsed = time.Since(start)
	info.EstCost = root.Cost()
	info.EstCard = root.Card()
	if ti := o.model.Transfer; ti != nil {
		info.TransferClasses = ti.Classes
		info.TransferPrepassCost = ti.PrepassCost
		info.EstCost += ti.PrepassCost
	}
	return root, info, nil
}

// selRank orders selections by the rank metric: (selectivity−1)/cost, with
// caching-aware per-tuple costs. streamCard contextualizes the caching
// discount.
func (o *Optimizer) selRank(p *query.Predicate, streamCard float64) float64 {
	return o.model.SelectionModule(p, streamCard).Rank()
}

// orderByRank sorts predicates ascending by rank (the provably optimal
// sequence for selections, §4.1); ties break by predicate ID for
// determinism. The Naive algorithm skips this ordering.
func (o *Optimizer) orderByRank(preds []*query.Predicate, streamCard float64) []*query.Predicate {
	out := append([]*query.Predicate(nil), preds...)
	o.sortByRank(out, streamCard)
	return out
}

// sortByRank is orderByRank in place.
func (o *Optimizer) sortByRank(preds []*query.Predicate, streamCard float64) {
	slices.SortStableFunc(preds, func(a, b *query.Predicate) int {
		if o.opts.Algorithm != NaivePushDown {
			ra, rb := o.selRank(a, streamCard), o.selRank(b, streamCard)
			if !cost.ApproxEq(ra, rb) {
				return cmp.Compare(ra, rb)
			}
		}
		return cmp.Compare(a.ID, b.ID)
	})
}
