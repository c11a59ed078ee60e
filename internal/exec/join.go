package exec

import (
	"errors"
	"fmt"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
	"predplace/internal/storage"
)

// buildJoin builds j with its output carved from rs and its inputs from
// e.below(rs): every join copies the pairs it emits.
func buildJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
	switch j.Method {
	case plan.NestLoop:
		return newNLJoin(e, j, rs)
	case plan.IndexNestLoop:
		return newIndexNLJoin(e, j, rs)
	case plan.HashJoin:
		if e.workers() > 1 && !e.ordered[j] {
			return newParallelHashJoin(e, j, rs)
		}
		return newHashJoin(e, j, rs)
	case plan.MergeJoin:
		return newMergeJoin(e, j, rs)
	}
	return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
}

// nlJoinIter is the tuple-at-a-time nested-loop join: the inner subtree is
// re-opened (and physically re-read through the buffer pool) once per outer
// tuple, exactly the access pattern the paper's |S|-pages-per-outer-tuple
// cost term models. The primary join predicate — which may be an expensive
// function over both sides (Query 5) — is evaluated per pair.
//
// Inner rows are valid only until the next rescan (the join's own slabPool,
// rewound there and released at Close); Next and NextBatch copy every pair
// they keep, so the join's output lives as long as its own rowAlloc says.
type nlJoinIter struct {
	e        *Env
	node     *plan.Join
	outer    Iterator
	inner    Iterator
	primary  *compiledPred // nil for cross product
	outerRow expr.Row
	haveOut  bool
	count    int
	// batch state: candidate-pair scratch (reused — survivors are copied to
	// slab rows), inner batch buffer, verdicts, predicate scratch
	pairBuf []expr.Value
	pairs   []expr.Row
	ibuf    []expr.Row
	ipos    int
	ilen    int
	keep    []bool
	sc      predScratch
	alloc   rowAlloc
	rescan  slabPool
}

func newNLJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
	outer, err := buildIn(e, j.Outer, e.below(rs))
	if err != nil {
		return nil, err
	}
	it := &nlJoinIter{e: e, node: j, outer: outer, alloc: rowAlloc{pool: rs}}
	if j.Primary != nil {
		cp, err := compilePred(e, j.Primary, joinCols(j))
		if err != nil {
			return nil, err
		}
		if e.prof != nil {
			cp.prof = e.nodeProf(j)
		}
		it.primary = cp
	}
	return it, nil
}

func joinCols(j *plan.Join) []query.ColRef { return plan.ConcatCols(j.Outer, j.Inner) }

func (n *nlJoinIter) Open() error { return n.outer.Open() }

// rescanInner closes the previous outer tuple's inner subtree, then builds
// and opens the next one over the same slabs.
func (n *nlJoinIter) rescanInner() error {
	if n.inner != nil {
		if err := n.inner.Close(); err != nil {
			return err
		}
	}
	n.rescan.rewind()
	inner, err := buildIn(n.e, n.node.Inner, &n.rescan)
	if err != nil {
		return err
	}
	// Store the rebuilt inner before opening it: if Open fails the join's
	// Close still reaches the new subtree (Close on a half-opened iterator is
	// safe), so a mid-query Open fault cannot strand pinned pages or exchange
	// goroutines.
	n.inner = inner
	n.ipos, n.ilen = 0, 0
	return inner.Open()
}

func (n *nlJoinIter) Next() (expr.Row, bool, error) {
	for {
		if !n.haveOut {
			row, ok, err := n.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.outerRow = row
			n.haveOut = true
			if err := n.rescanInner(); err != nil {
				return nil, false, err
			}
		}
		for {
			irow, ok, err := n.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				n.haveOut = false
				break
			}
			n.count++
			if n.count%64 == 0 {
				if err := n.e.checkAbort(); err != nil {
					return nil, false, err
				}
			}
			out := n.outerRow.Concat(irow)
			if n.primary != nil {
				pass, err := n.primary.holds(n.e, out, &n.sc)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			return out, true, nil
		}
	}
}

// NextBatch vectorizes the nested loop's hottest flaw: the Next path
// concatenates every candidate pair before the primary predicate sees it,
// allocating a row per pair even though most pairs fail. Here candidate
// pairs are assembled in a reusable scratch block, the primary is evaluated
// over the whole batch (batched cache traffic included), and only the
// survivors are materialized into slab rows. Pair order, page I/O, and
// charged cost match the Next path; the inner subtree is drained through
// its own batch fast path.
func (n *nlJoinIter) NextBatch(dst []expr.Row) (int, error) {
	k := len(dst)
	if k == 0 {
		return 0, nil
	}
	w := len(n.node.Outer.Cols()) + len(n.node.Inner.Cols())
	if len(n.pairBuf) < k*w {
		n.pairBuf = make([]expr.Value, k*w)
		n.pairs = make([]expr.Row, k)
		for i := range n.pairs {
			n.pairs[i] = expr.Row(n.pairBuf[i*w : (i+1)*w : (i+1)*w])
		}
		n.keep = make([]bool, k)
	}
	if cap(n.ibuf) < n.e.batchSize() {
		n.ibuf = make([]expr.Row, n.e.batchSize())
	}
	for {
		// Gather up to k candidate pairs into the scratch block.
		cand := 0
		for cand < k {
			if !n.haveOut {
				row, ok, err := n.outer.Next()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				n.outerRow = row
				n.haveOut = true
				if err := n.rescanInner(); err != nil {
					return 0, err
				}
			}
			if n.ipos >= n.ilen {
				m, err := nextBatch(n.inner, n.ibuf[:cap(n.ibuf)])
				if err != nil {
					return 0, err
				}
				if m == 0 {
					n.haveOut = false
					continue
				}
				n.ipos, n.ilen = 0, m
			}
			irow := n.ibuf[n.ipos]
			n.ipos++
			n.count++
			if n.count%64 == 0 {
				if err := n.e.checkAbort(); err != nil {
					return 0, err
				}
			}
			pair := n.pairs[cand]
			copy(pair, n.outerRow)
			copy(pair[len(n.outerRow):], irow)
			cand++
		}
		if cand == 0 {
			return 0, nil
		}
		out := 0
		if n.primary != nil {
			// The gather loop above already ran the join's every-64-pairs
			// budget cadence; holdsBatch's own ticking on this throwaway
			// counter only adds extra (harmless) abort checks.
			tick := 0
			if err := n.primary.holdsBatch(n.e, n.pairs[:cand], n.keep[:cand], &tick, &n.sc); err != nil {
				return 0, err
			}
			for i := 0; i < cand; i++ {
				if n.keep[i] {
					orow := n.alloc.next(w)
					copy(orow, n.pairs[i])
					dst[out] = orow
					out++
				}
			}
		} else {
			for i := 0; i < cand; i++ {
				orow := n.alloc.next(w)
				copy(orow, n.pairs[i])
				dst[out] = orow
				out++
			}
		}
		if out > 0 {
			return out, nil
		}
	}
}

func (n *nlJoinIter) Close() error {
	var cerr error
	if n.inner != nil {
		cerr = n.inner.Close()
		n.inner = nil
	}
	n.rescan.release()
	return errors.Join(cerr, n.outer.Close())
}

// indexNLJoinIter probes the inner base table's B-tree with each outer
// tuple's join value, fetches matching tuples, and applies the inner-side
// residual filters to each fetched match.
type indexNLJoinIter struct {
	e     *Env
	node  *plan.Join
	outer Iterator
	tab   *catalog.Table
	// tree and heap are the inner index and heap viewed through the query's
	// I/O tracker, resolved once at Open so per-probe access doesn't re-wrap.
	tree      *btree.Tree
	heap      *storage.HeapFile
	outKeyIdx int
	residual  []*compiledPred // inner-side filters, innermost first
	// Profiling attribution for the probe-driven inner chain, whose plan
	// nodes are never built as iterators: baseRows counts heap rows the
	// probes fetch (the base scan's output), residualRows[i] counts rows
	// surviving residual[i] (that filter node's output). Nil when profiling
	// is off — the default path is untouched.
	baseRows     *int64
	residualRows []*int64
	outerRow     expr.Row
	matches      []expr.Row
	pos          int
	haveOut      bool
	count        int
	sc           predScratch
}

func newIndexNLJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
	table, filters, ok := plan.BaseTable(j.Inner)
	if !ok {
		return nil, fmt.Errorf("exec: index-nested-loop inner must be a (filtered) base table")
	}
	tab, err := e.Cat.Table(table)
	if err != nil {
		return nil, err
	}
	if !tab.HasIndex(j.InnerIndexCol) {
		return nil, fmt.Errorf("exec: no index on %s.%s", table, j.InnerIndexCol)
	}
	if j.Primary == nil || j.Primary.Kind != query.KindJoinCmp || j.Primary.Op != expr.OpEQ {
		return nil, fmt.Errorf("exec: index-nested-loop requires an equality primary predicate")
	}
	// Which side of the primary is the outer key?
	var outerKey query.ColRef
	innerRef := query.ColRef{Table: table, Col: j.InnerIndexCol}
	switch {
	case j.Primary.Right == innerRef:
		outerKey = j.Primary.Left
	case j.Primary.Left == innerRef:
		outerKey = j.Primary.Right
	default:
		return nil, fmt.Errorf("exec: primary %v does not match index column %s", j.Primary, innerRef)
	}
	outIdx := plan.ColIndex(j.Outer, outerKey)
	if outIdx < 0 {
		return nil, fmt.Errorf("exec: outer key %v not in outer schema", outerKey)
	}
	outer, err := buildIn(e, j.Outer, e.below(rs))
	if err != nil {
		return nil, err
	}
	// Residual filters apply innermost (lowest) first.
	rev := make([]*query.Predicate, 0, len(filters))
	for i := len(filters) - 1; i >= 0; i-- {
		rev = append(rev, filters[i])
	}
	residual, err := compilePreds(e, rev, j.Inner.Cols())
	if err != nil {
		return nil, err
	}
	it := &indexNLJoinIter{
		e: e, node: j, outer: outer, tab: tab,
		outKeyIdx: outIdx, residual: residual,
	}
	if e.prof != nil {
		// Attribute the inner chain to its plan nodes: residual[i] was
		// reversed out of BaseTable's filters, so its node is predNodes
		// mirrored. When the base scan's own Matched predicate is part of
		// the chain, surviving it is the base node's output; otherwise every
		// fetched heap row is.
		if base, predNodes, ok := plan.BaseTableNodes(j.Inner); ok {
			it.residualRows = make([]*int64, len(residual))
			for i := range residual {
				node := predNodes[len(predNodes)-1-i]
				it.residualRows[i] = e.nodeCounter(node)
				residual[i].prof = e.nodeProf(node)
			}
			if len(predNodes) == 0 || predNodes[len(predNodes)-1] != base {
				it.baseRows = e.nodeCounter(base)
			}
		}
	}
	return it, nil
}

func (n *indexNLJoinIter) Open() error {
	n.tree = n.e.index(n.tab.Indexes[n.node.InnerIndexCol])
	n.heap = n.e.heap(n.tab)
	return n.outer.Open()
}

func (n *indexNLJoinIter) Next() (expr.Row, bool, error) {
	for {
		if !n.haveOut {
			row, ok, err := n.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			n.outerRow, n.haveOut, n.pos = row, true, 0
			n.matches = n.matches[:0]
			key := row[n.outKeyIdx]
			if key.Kind == expr.TInt { // NULL or non-int keys match nothing
				for _, tid := range n.tree.Probe(key.I) {
					rec, err := n.heap.Get(tid)
					if err != nil {
						return nil, false, err
					}
					irow, err := n.tab.Codec.Decode(rec)
					if err != nil {
						return nil, false, err
					}
					if n.baseRows != nil {
						*n.baseRows++
					}
					keep := true
					for ri, f := range n.residual {
						pass, err := f.holds(n.e, irow, &n.sc)
						if err != nil {
							return nil, false, err
						}
						if !pass {
							keep = false
							break
						}
						if n.residualRows != nil {
							*n.residualRows[ri]++
						}
					}
					if keep {
						n.matches = append(n.matches, irow)
					}
				}
			}
			n.count++
			if n.count%64 == 0 {
				if err := n.e.checkAbort(); err != nil {
					return nil, false, err
				}
			}
		}
		if n.pos < len(n.matches) {
			irow := n.matches[n.pos]
			n.pos++
			return n.outerRow.Concat(irow), true, nil
		}
		n.haveOut = false
	}
}

func (n *indexNLJoinIter) Close() error { return n.outer.Close() }

// hashJoinIter builds an in-memory joinTable on the inner input keyed by
// the join column, then streams the outer input probing it. Grace-hash
// partition traffic is charged synthetically per tuple on both sides so the
// measured cost matches the linear model's constants.
type hashJoinIter struct {
	e       *Env
	node    *plan.Join
	outer   Iterator
	inner   Iterator
	outIdx  int
	inIdx   int
	table   joinTable
	outRow  expr.Row
	cur     int32 // next inner match of outRow in table, -1 when none is left
	haveOut bool
	count   int
	// batch state: current outer batch, output row slab
	obuf  []expr.Row
	opos  int
	olen  int
	alloc rowAlloc
}

func newHashJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
	if j.Primary != nil && j.Primary.IsExpensive() {
		return nil, fmt.Errorf("exec: hash join cannot use an expensive primary predicate")
	}
	outer, err := buildIn(e, j.Outer, e.below(rs))
	if err != nil {
		return nil, err
	}
	inner, err := buildIn(e, j.Inner, e.below(rs))
	if err != nil {
		return nil, err
	}
	oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
	if err != nil {
		return nil, err
	}
	return &hashJoinIter{e: e, node: j, outer: outer, inner: inner, outIdx: oi, inIdx: ii, alloc: rowAlloc{pool: rs}}, nil
}

func (h *hashJoinIter) Open() error {
	if err := h.inner.Open(); err != nil {
		return err
	}
	h.table, h.cur = joinTable{idx: h.inIdx}, -1
	h.table.reserve(cardHint(h.node.Inner.Card()))
	if bs := h.e.batchSize(); bs > 1 {
		if err := h.buildBatched(bs); err != nil {
			return err
		}
	} else if err := h.buildTupleAtATime(); err != nil {
		return err
	}
	if err := h.inner.Close(); err != nil {
		return err
	}
	return h.outer.Open()
}

// buildTupleAtATime is the legacy build loop (BatchSize 1).
func (h *hashJoinIter) buildTupleAtATime() error {
	for {
		row, ok, err := h.inner.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		h.e.ChargeSpillTuple()
		if row[h.inIdx].IsNull() {
			continue
		}
		h.table.add(row)
		h.count++
		if h.count%1024 == 0 {
			if err := h.e.checkAbort(); err != nil {
				return err
			}
		}
	}
}

// buildBatched drains the inner input batch-at-a-time. Spill charges,
// skipped NULL keys, and budget cadence match the legacy loop.
func (h *hashJoinIter) buildBatched(bs int) error {
	buf := getRowBuf(bs)
	defer putRowBuf(buf)
	for {
		m, err := nextBatch(h.inner, buf)
		if err != nil {
			return err
		}
		if m == 0 {
			return nil
		}
		for _, row := range buf[:m] {
			h.e.ChargeSpillTuple()
			if row[h.inIdx].IsNull() {
				continue
			}
			h.table.add(row)
			h.count++
			if h.count%1024 == 0 {
				if err := h.e.checkAbort(); err != nil {
					return err
				}
			}
		}
	}
}

func (h *hashJoinIter) Next() (expr.Row, bool, error) {
	for {
		if !h.haveOut {
			row, ok, err := h.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			h.e.ChargeSpillTuple()
			h.outRow, h.haveOut = row, true
			h.cur = h.table.first(row[h.outIdx])
			h.count++
			if h.count%1024 == 0 {
				if err := h.e.checkAbort(); err != nil {
					return nil, false, err
				}
			}
		}
		if h.cur >= 0 {
			irow := h.table.rows[h.cur]
			h.cur = h.table.next[h.cur]
			return h.outRow.Concat(irow), true, nil
		}
		h.haveOut = false
	}
}

// NextBatch probes the hash table with a batch of outer rows at a time and
// carves output rows from a value slab instead of one Concat allocation per
// match. Spill charges, probe order, and budget cadence match the Next path
// exactly.
func (h *hashJoinIter) NextBatch(dst []expr.Row) (int, error) {
	if cap(h.obuf) < h.e.batchSize() {
		h.obuf = make([]expr.Row, h.e.batchSize())
	}
	n := 0
	for n < len(dst) {
		if h.cur >= 0 {
			dst[n] = h.alloc.concat(h.outRow, h.table.rows[h.cur])
			h.cur = h.table.next[h.cur]
			n++
			continue
		}
		if h.opos >= h.olen {
			m, err := nextBatch(h.outer, h.obuf[:h.e.batchSize()])
			if err != nil {
				return 0, err
			}
			if m == 0 {
				break
			}
			h.olen, h.opos = m, 0
		}
		row := h.obuf[h.opos]
		h.opos++
		h.e.ChargeSpillTuple()
		h.count++
		if h.count%1024 == 0 {
			if err := h.e.checkAbort(); err != nil {
				return 0, err
			}
		}
		h.outRow, h.cur = row, h.table.first(row[h.outIdx])
	}
	return n, nil
}

func (h *hashJoinIter) Close() error {
	h.table, h.cur = joinTable{}, -1
	return errors.Join(h.outer.Close(), h.inner.Close())
}

// mergeJoinIter materializes both inputs, sorts whichever sides the plan
// marks unsorted (charging external-sort spill), and merges equal-key
// groups.
type mergeJoinIter struct {
	e      *Env
	node   *plan.Join
	outIdx int
	inIdx  int
	orows  []expr.Row
	irows  []expr.Row
	oi, ii int
	group  []expr.Row // inner group matching current outer key
	gpos   int
	opened bool
	alloc  rowAlloc
}

func newMergeJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
	if j.Primary != nil && j.Primary.IsExpensive() {
		return nil, fmt.Errorf("exec: merge join cannot use an expensive primary predicate")
	}
	oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
	if err != nil {
		return nil, err
	}
	return &mergeJoinIter{e: e, node: j, outIdx: oi, inIdx: ii, alloc: rowAlloc{pool: rs}}, nil
}

// drain builds n over rs and collects every row it produces.
func drain(e *Env, n plan.Node, rs *slabPool) ([]expr.Row, error) {
	it, err := buildIn(e, n, rs)
	if err != nil {
		return nil, err
	}
	rows, _, err := collect(e, it, n.Card(), true)
	if err := errors.Join(err, it.Close()); err != nil {
		return nil, err
	}
	return rows, nil
}

func (m *mergeJoinIter) Open() error {
	var err error
	in := m.e.below(m.alloc.pool)
	if m.orows, err = drain(m.e, m.node.Outer, in); err != nil {
		return err
	}
	if m.irows, err = drain(m.e, m.node.Inner, in); err != nil {
		return err
	}
	sortSide := func(rows []expr.Row, idx int) {
		m.e.ChargeSynthetic(float64(len(rows)) * cost.SortSpillPerTuple)
		sortRowsByKey(rows, idx)
	}
	if m.node.SortOuter {
		sortSide(m.orows, m.outIdx)
	}
	if m.node.SortInner {
		sortSide(m.irows, m.inIdx)
	}
	m.opened = true
	return m.e.checkAbort()
}

func (m *mergeJoinIter) Next() (expr.Row, bool, error) {
	if !m.opened {
		return nil, false, fmt.Errorf("exec: Next before Open on MergeJoin")
	}
	ok, err := m.seek()
	if err != nil || !ok {
		return nil, false, err
	}
	return m.emit(), true, nil
}

// NextBatch emits whole runs of an inner group per seek. Pair order, the
// per-group budget check, and the slab-carved rows are the Next path's.
func (m *mergeJoinIter) NextBatch(dst []expr.Row) (int, error) {
	if !m.opened {
		return 0, fmt.Errorf("exec: NextBatch before Open on MergeJoin")
	}
	n := 0
	for n < len(dst) {
		ok, err := m.seek()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		for n < len(dst) && m.gpos < len(m.group) {
			dst[n] = m.emit()
			n++
		}
	}
	return n, nil
}

// emit returns the pair seek stopped on — the current outer row with the
// group's next inner row — carved from the output slab, and steps past it.
func (m *mergeJoinIter) emit() expr.Row {
	out := m.alloc.concat(m.orows[m.oi], m.group[m.gpos])
	m.gpos++
	return out
}

// seek positions the merge on the next matching pair (m.orows[m.oi] with
// m.group[m.gpos]) and reports false once either input is exhausted.
func (m *mergeJoinIter) seek() (bool, error) {
	for {
		if m.gpos < len(m.group) {
			return true, nil
		}
		// Group finished: advance outer; if its key matches the previous
		// group's key, reuse the group.
		if len(m.group) > 0 {
			prevKey := m.group[0][m.inIdx]
			m.oi++
			if m.oi < len(m.orows) && !m.orows[m.oi][m.outIdx].IsNull() &&
				m.orows[m.oi][m.outIdx].Equal(prevKey) {
				m.gpos = 0
				continue
			}
			m.group, m.gpos = nil, 0
		}
		if m.oi >= len(m.orows) {
			return false, nil
		}
		okey := m.orows[m.oi][m.outIdx]
		if okey.IsNull() {
			m.oi++
			continue
		}
		// Advance inner to the first key >= okey.
		for m.ii < len(m.irows) && (m.irows[m.ii][m.inIdx].IsNull() || m.irows[m.ii][m.inIdx].Compare(okey) < 0) {
			m.ii++
		}
		if m.ii >= len(m.irows) {
			return false, nil
		}
		if m.irows[m.ii][m.inIdx].Compare(okey) > 0 {
			m.oi++
			continue
		}
		// Collect the group of equal inner keys.
		start := m.ii
		for m.ii < len(m.irows) && m.irows[m.ii][m.inIdx].Equal(okey) {
			m.ii++
		}
		m.group = m.irows[start:m.ii]
		m.gpos = 0
		// The next outer with the same key must see this group again.
		m.ii = start
		// Advance past the group only when the outer key changes; handled by
		// the reuse branch above. To avoid rescanning forever, remember that
		// groups are re-found by key comparison: reset ii to start is safe
		// because the outer only moves forward.
		if err := m.e.checkAbort(); err != nil {
			return false, err
		}
	}
}

// Close drops the drained sides: once the pool they were carved from is
// rewound or released, no closed operator holds row headers into it.
func (m *mergeJoinIter) Close() error {
	m.orows, m.irows, m.group = nil, nil, nil
	return nil
}
