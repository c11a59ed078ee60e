package harness

// The benchmark queries, reconstructed from the paper's prose (the paper
// shows only Query 1's template and describes the others through their
// figures). Each reconstruction is justified in DESIGN.md §5.

// Query1 (Figure 3): join on unique unindexed columns with an expensive
// selection on the larger table (t9). With the reconstruction's 0-based
// nested domains, values(t3.ua1) ⊂ values(t9.ua1), so the join's selectivity
// over t9 is |t3|/|t9| = 1/3: evaluating costly100 after the join saves two
// thirds of its invocations, and PushDown is badly suboptimal (paper: ~3x).
const Query1 = `SELECT * FROM t3, t9
WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)`

// Query2 (Figure 4): the same as Query 1 with the small partner table
// substituted by a larger one (the paper swaps t3 for t9 against t10; our
// nested domains realize the same mechanism by swapping t3 for t10 against
// t9). Now values(t9.ua1) ⊆ values(t10.ua1), so the join has selectivity
// exactly 1 over t9: pulling the selection up provides no invocation savings
// and slightly increases the join's input. PullUp errs, but "this error is
// nearly insignificant".
const Query2 = `SELECT * FROM t10, t9
WHERE t10.ua1 = t9.ua1 AND costly100(t9.u20)`

// Query3 (Figure 5): a many-to-many join (each t3 tuple matches ≈10 t10
// tuples, so the join's selectivity over t3 exceeds 1). Pulling costly100 up
// multiplies its invocations by ~10 — "over-eager pullup can cause
// significant performance problems". Run with predicate caching off; §5.1
// notes caching bounds this damage (see the caching ablation).
const Query3 = `SELECT * FROM t3, t10
WHERE t3.a10 = t10.a10 AND costly100(t3.ua1)`

// Query4 (Figures 6–8): three-way join where, in the good order, the join
// above t3 has selectivity 1 over the stream (rank 0) while the next join
// filters the stream to ~10% (low rank). rank(costly100) lies between the
// two joins' ranks but above their *group* rank, so only Predicate
// Migration — which composes the out-of-rank-order pair — pulls the
// selection above both. PullRank either leaves it at the bottom or flees to
// a worse join order (Figure 7).
const Query4 = `SELECT * FROM t3, t10, t1
WHERE t3.ua1 = t10.ua1 AND t10.ua1 = t1.ua1 AND costly100(t3.u20)`

// Query5 (Figure 9): four relations where t7 connects only through an
// expensive join predicate, plus an expensive, selective predicate on t3
// (selective100: 100 I/Os per call, selectivity 0.1 — registered with the
// benchmark functions by every Open). PullUp hoists the selection above the expensive join, so the
// join predicate runs on the near-cross-product of t7 with the unfiltered
// t3⋈t6⋈t10 subtree — ten times the pairs. This is the plan that "used up
// all available swap space and never completed" in the paper; here it blows
// through the charged-cost budget and reports DNF.
const Query5 = `SELECT * FROM t3, t6, t7, t10
WHERE t3.ua1 = t10.ua1 AND t6.a1 = t10.a10
AND costly10join(t3.u20, t7.u20) AND selective100(t3.u10)`

// Fig1Query is the §3.1 example: SELECT * FROM R, S WHERE R.c1 = S.c1 AND
// p(R.c2) AND q(S.c2), where the optimal plan (the paper's Figure 1) places
// p and q directly above the scans. The join t1.ua1 = t10.u10 is over
// identical 0-based domains (it reduces neither input much), and with
// predicate caching on, p and q — whose arguments have few distinct values —
// cost almost nothing per tuple below the join, so the optimal plan keeps
// both at the scans: a shape no left-deep tree over the LDL rewrite can
// express (Figure 2). Run with caching enabled.
const Fig1Query = `SELECT * FROM t1, t10
WHERE t1.ua1 = t10.u10 AND costly1(t1.u100) AND costly1(t10.u100)`

// PlanTimeQuery is the §4.4 stress case: a 5-way join with expensive
// predicates everywhere, maximizing unpruneable subplan retention. The paper
// plans it in under 8 seconds on a SparcStation 10.
const PlanTimeQuery = `SELECT * FROM t1, t3, t6, t9, t10
WHERE t1.ua1 = t3.ua1 AND t3.ua1 = t10.ua1 AND t6.a1 = t10.a10 AND t9.a10 = t10.a10
AND costly100(t1.u20) AND costly100(t3.u20) AND costly10(t9.u10) AND costly10(t10.u10)`
