package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
		outer, err := buildIn(e, j.Outer, e.below(rs))
		if err != nil {
			return nil, err
		}
		b, err := newHashBuild(e, j, rs)
		if err != nil {
			return nil, err
		}
		return b.probe(outer, rs), nil
	case plan.MergeJoin:
		return newMergeJoin(e, j, rs)
	}
	return nil, fmt.Errorf("exec: unknown join method %v", j.Method)
}

// nlJoinIter is the nested-loop join: the inner subtree is re-opened (and
// physically re-read through the buffer pool) once per outer tuple, exactly
// the access pattern the paper's |S|-pages-per-outer-tuple cost term models.
// The primary join predicate — which may be an expensive function over both
// sides (Query 5) — is evaluated per pair, in place: over the outer row and
// a batch of inner rows, the pairs themselves never made (holdsBatch); a
// cached one answers an inner value it has settled since the rescan from its
// memo (sweepMemo) when that value alone names the binding. The outer side
// is pulled one row at a time (next): its page accesses interleave with the
// inner's.
//
// Inner rows are valid only until the next rescan (the join's own slabPool,
// rewound there and released at Close), and those of a thin inner scan only
// until its next batch; NextBatch makes each pair it keeps once, straight
// into its output — completing the inner half through fin — before it pulls
// more, so the join's output lives as long as its own rowAlloc says.
type nlJoinIter struct {
	e        *Env
	node     *plan.Join
	outer    Iterator
	inner    Iterator
	primary  *compiledPred // nil for cross product
	memo     *sweepMemo    // of the primary's verdicts this sweep, or nil
	outerRow expr.Row
	haveOut  bool
	count    int
	// inner batch buffer, verdicts, predicate scratch
	ibuf   []expr.Row
	keep   []bool
	sc     predScratch
	alloc  rowAlloc
	fin    finisher // of the inner rows: a thin one is decoded into its pair
	rescan slabPool
}

func newNLJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
	outer, err := buildIn(e, j.Outer, e.below(rs))
	if err != nil {
		return nil, err
	}
	it := &nlJoinIter{e: e, node: j, outer: outer, alloc: rowAlloc{pool: rs}, fin: e.finisherFor(j.Inner)}
	if j.Primary != nil {
		cols := joinCols(j)
		cp, err := compilePred(e, j.Primary, cols)
		if err != nil {
			return nil, err
		}
		if e.prof != nil {
			cp.prof = e.nodeProf(j)
		}
		it.primary, it.memo = cp, newSweepMemo(e, cp, cols, len(j.Outer.Cols()))
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
	if n.memo != nil {
		n.memo.reset()
	}
	inner, err := buildIn(n.e, n.node.Inner, &n.rescan)
	if err != nil {
		return err
	}
	// Store the rebuilt inner before opening it: if Open fails the join's
	// Close still reaches the new subtree (Close on a half-opened iterator is
	// safe), so a mid-query Open fault cannot strand pinned pages or exchange
	// goroutines.
	n.inner = inner
	return inner.Open()
}

// NextBatch evaluates the primary over the current outer row and a batch of
// inner rows (batched cache traffic included) and makes a pair only for a
// survivor, once, straight into dst — most pairs fail, and a failed pair
// costs neither a row nor a copy. Each inner batch is taken in whole before
// the next is pulled, and no more inner rows are pulled than the pairs still
// owed, so an operator above that must not read ahead (next) sees none here
// either. The budget is checked every 64 pairs.
func (n *nlJoinIter) NextBatch(dst []expr.Row) (int, error) {
	k := len(dst)
	if len(n.ibuf) < k {
		n.ibuf = make([]expr.Row, k)
		n.keep = make([]bool, k)
	}
	out := 0
	for out < k {
		if !n.haveOut {
			row, ok, err := next(n.outer)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			n.outerRow, n.haveOut = row, true
			if err := n.rescanInner(); err != nil {
				return 0, err
			}
		}
		m, err := n.inner.NextBatch(n.ibuf[:k-out])
		if err != nil {
			return 0, err
		}
		if m == 0 {
			n.haveOut = false
			continue
		}
		if before := n.count; (before+m)/64 != before/64 {
			if err := n.e.checkAbort(); err != nil {
				return 0, err
			}
		}
		n.count += m
		inner, keep := n.ibuf[:m], n.keep[:m]
		if n.primary == nil {
			for i := range keep {
				keep[i] = true
			}
		} else {
			// The join keeps its every-64-pairs budget cadence above;
			// holdsBatch's own ticking on this throwaway counter only adds
			// extra (harmless) abort checks.
			tick := 0
			if n.memo != nil {
				err = n.memo.holds(n.e, n.primary, n.outerRow, inner, keep, &tick, &n.sc)
			} else {
				err = n.primary.holdsBatch(n.e, n.outerRow, inner, keep, &tick, &n.sc)
			}
			if err != nil {
				return 0, err
			}
		}
		w := len(n.outerRow)
		for i, irow := range inner {
			if !keep[i] {
				continue
			}
			pair := n.alloc.next(w + len(irow))
			copy(pair, n.outerRow)
			if err := n.fin.emit(pair[w:], irow); err != nil {
				return 0, err
			}
			dst[out] = pair
			out++
		}
	}
	return out, nil
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
// residual filters to each fetched match. The outer side is pulled one row
// at a time (next): its page accesses interleave with the probes'. An outer
// row is finished — decoded, when a thin scan made it — into its first pair,
// and its later matches copy it from there; one with no match is never
// finished, and it is good until the outer's next row is pulled, which is
// only once its last pair is made.
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
	baseRows     *atomic.Int64
	residualRows []*atomic.Int64
	outerRow     expr.Row
	matches      []expr.Row // outerRow's surviving inner rows, emitted from pos
	pos          int
	count        int
	sc           predScratch
	memo         catalog.DecodeMemo
	inner        rowAlloc // fetched inner rows: the query's, like a scan's
	spare        expr.Row // carved for a fetch a residual filter then rejected: the next fetch's row
	alloc        rowAlloc // output pairs
	fin          finisher // of the outer rows: a thin one is decoded into its first pair
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
	outIdx, err := indexNLOuterKey(j, table)
	if err != nil {
		return nil, err
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
		inner: rowAlloc{pool: e.below(rs)}, alloc: rowAlloc{pool: rs}, fin: e.finisherFor(j.Outer),
	}
	if e.prof != nil {
		// Attribute the inner chain to its plan nodes: residual[i] was
		// reversed out of BaseTable's filters, so its node is predNodes
		// mirrored. When the base scan's own Matched predicate is part of
		// the chain, surviving it is the base node's output; otherwise every
		// fetched heap row is.
		if base, predNodes, ok := plan.BaseTableNodes(j.Inner); ok {
			it.residualRows = make([]*atomic.Int64, len(residual))
			for i := range residual {
				c := e.nodeProf(predNodes[len(predNodes)-1-i])
				it.residualRows[i], residual[i].prof = &c.rows, c
			}
			if len(predNodes) == 0 || predNodes[len(predNodes)-1] != base {
				it.baseRows = &e.nodeProf(base).rows
			}
		}
	}
	return it, nil
}

// indexNLOuterKey returns the position in j's outer columns of the value
// the index nested loop j probes table's index with: the outer side of its
// equality primary.
func indexNLOuterKey(j *plan.Join, table string) (int, error) {
	if j.Primary == nil || j.Primary.Kind != query.KindJoinCmp || j.Primary.Op != expr.OpEQ {
		return 0, fmt.Errorf("exec: index-nested-loop requires an equality primary predicate")
	}
	var outerKey query.ColRef
	innerRef := query.ColRef{Table: table, Col: j.InnerIndexCol}
	switch {
	case j.Primary.Right == innerRef:
		outerKey = j.Primary.Left
	case j.Primary.Left == innerRef:
		outerKey = j.Primary.Right
	default:
		return 0, fmt.Errorf("exec: primary %v does not match index column %s", j.Primary, innerRef)
	}
	outIdx := plan.ColIndex(j.Outer, outerKey)
	if outIdx < 0 {
		return 0, fmt.Errorf("exec: outer key %v not in outer schema", outerKey)
	}
	return outIdx, nil
}

func (n *indexNLJoinIter) Open() error {
	n.tree = n.e.index(n.tab.Indexes[n.node.InnerIndexCol])
	n.heap = n.e.heap(n.tab)
	return n.outer.Open()
}

// NextBatch emits the current outer row's pending matches, then pulls the
// next outer row and probes for its matches. The budget is checked every 64
// outer rows.
func (n *indexNLJoinIter) NextBatch(dst []expr.Row) (int, error) {
	out := 0
	for out < len(dst) {
		if n.pos < len(n.matches) {
			w, match := len(n.outerRow), n.matches[n.pos]
			pair := n.alloc.next(w + len(match))
			if err := n.fin.emit(pair[:w], n.outerRow); err != nil {
				return 0, err
			}
			copy(pair[w:], match)
			dst[out], n.outerRow = pair, pair[:w:w]
			n.pos++
			out++
			continue
		}
		row, ok, err := next(n.outer)
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		n.outerRow, n.pos = row, 0
		if err := n.probe(row[n.outKeyIdx]); err != nil {
			return 0, err
		}
		n.count++
		if n.count%64 == 0 {
			if err := n.e.checkAbort(); err != nil {
				return 0, err
			}
		}
	}
	return out, nil
}

// probe refills matches with the inner rows under key that pass every
// residual filter. NULL and non-int keys match nothing.
func (n *indexNLJoinIter) probe(key expr.Value) error {
	n.matches = n.matches[:0]
	if key.Kind != expr.TInt {
		return nil
	}
	width := len(n.tab.Columns)
	decode := func(rec []byte) error { return n.tab.Codec.DecodeIntoMemo(rec, n.spare, &n.memo) }
fetch:
	for _, tid := range n.tree.Probe(key.I) {
		if n.spare == nil {
			n.spare = n.inner.next(width)
		}
		if err := n.heap.View(tid, decode); err != nil {
			return err
		}
		if n.baseRows != nil {
			n.baseRows.Add(1)
		}
		for ri, f := range n.residual {
			pass, err := f.holds(n.e, n.spare, &n.sc)
			if err != nil {
				return err
			}
			if !pass {
				continue fetch
			}
			if n.residualRows != nil {
				n.residualRows[ri].Add(1)
			}
		}
		n.matches, n.spare = append(n.matches, n.spare), nil
	}
	return nil
}

func (n *indexNLJoinIter) Close() error {
	n.spare = nil
	return n.outer.Close()
}

// hashBuild is the build side of a hash join: the inner input drained into
// one in-memory joinTable keyed by the join column, once, by whichever
// probe opens first. The serial join has one probe; inside a segment every
// worker's probe shares the build, and the finished table is only read.
type hashBuild struct {
	e      *Env
	node   *plan.Join
	inner  Iterator
	outIdx int
	inIdx  int
	once   sync.Once
	err    error
	table  joinTable
}

// newHashBuild builds j's inner input — with the ordinary buildIn, so it may
// plant an exchange of its own — carving from the pool j's inputs share.
func newHashBuild(e *Env, j *plan.Join, rs *slabPool) (*hashBuild, error) {
	if j.Primary != nil && j.Primary.IsExpensive() {
		return nil, fmt.Errorf("exec: hash join cannot use an expensive primary predicate")
	}
	inner, err := buildIn(e, j.Inner, e.below(rs))
	if err != nil {
		return nil, err
	}
	oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
	if err != nil {
		return nil, err
	}
	return &hashBuild{e: e, node: j, inner: inner, outIdx: oi, inIdx: ii}, nil
}

// probe returns a probe of b over outer, its output pairs carved from rs.
func (b *hashBuild) probe(outer Iterator, rs *slabPool) *hashJoinIter {
	return &hashJoinIter{e: b.e, outer: outer, build: b, alloc: rowAlloc{pool: rs}, fin: b.e.finisherFor(b.node.Outer)}
}

// open builds the table on the first call; every call returns how that went.
func (b *hashBuild) open() error {
	b.once.Do(func() { b.err = b.fill() })
	return b.err
}

// fill drains the inner input into the table, charging spill per tuple
// (NULL keys included) and checking the budget every 1024 rows kept.
func (b *hashBuild) fill() error {
	if err := b.inner.Open(); err != nil {
		return err
	}
	b.table = joinTable{idx: b.inIdx}
	b.table.reserve(cardHint(b.node.Inner.Card()))
	buf := getRowBuf(b.e.batchSize())
	defer putRowBuf(buf)
	for {
		m, err := b.inner.NextBatch(buf)
		if err != nil {
			return err
		}
		if m == 0 {
			return b.inner.Close()
		}
		for _, row := range buf[:m] {
			b.e.ChargeSpillTuple()
			if row[b.inIdx].IsNull() {
				continue
			}
			b.table.add(row)
			if len(b.table.rows)%1024 == 0 {
				if err := b.e.checkAbort(); err != nil {
					return err
				}
			}
		}
	}
}

// close drops the table and closes the inner input; every probe calls it.
func (b *hashBuild) close() error {
	b.table = joinTable{}
	return b.inner.Close()
}

// hashJoinIter is the probe side of a hash join: it streams the outer input
// against its hashBuild's table. Grace-hash partition traffic is charged
// synthetically per tuple on both sides so the measured cost matches the
// linear model's constants.
type hashJoinIter struct {
	e      *Env
	outer  Iterator
	build  *hashBuild
	outRow expr.Row
	cur    int32 // next inner match of outRow in the table, -1 when none is left
	count  int
	// current outer batch, output row slab
	obuf  []expr.Row
	opos  int
	olen  int
	alloc rowAlloc
	fin   finisher // of the outer rows: a thin one is decoded into its first pair
}

// Open builds the table (or finds it built) before the outer input opens.
// The budget cadence carries on from the rows the build kept.
func (h *hashJoinIter) Open() error {
	if err := h.build.open(); err != nil {
		return err
	}
	h.cur, h.count = -1, len(h.build.table.rows)
	return h.outer.Open()
}

// NextBatch probes the table with as many outer rows at a time as the
// caller asked for pairs — so a caller pulling one row reads no outer row
// ahead — and carves output rows from a value slab. Spill is charged per
// outer row probed; the budget is checked every 1024.
func (h *hashJoinIter) NextBatch(dst []expr.Row) (int, error) {
	t, outIdx := &h.build.table, h.build.outIdx
	n := 0
	for n < len(dst) {
		if h.cur >= 0 {
			w := len(h.outRow)
			pair := h.alloc.next(w + len(t.rows[h.cur]))
			if err := h.fin.emit(pair[:w], h.outRow); err != nil {
				return 0, err
			}
			copy(pair[w:], t.rows[h.cur])
			// The next match of this outer row copies it from here: whole,
			// and as warm as memory gets.
			dst[n], h.outRow = pair, pair[:w:w]
			h.cur = t.next[h.cur]
			n++
			continue
		}
		if h.opos >= h.olen {
			if cap(h.obuf) < len(dst) {
				h.obuf = make([]expr.Row, len(dst))
			}
			m, err := h.outer.NextBatch(h.obuf[:len(dst)])
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
		h.outRow, h.cur = row, t.first(row[outIdx])
	}
	return n, nil
}

func (h *hashJoinIter) Close() error {
	h.cur = -1
	return errors.Join(h.outer.Close(), h.build.close())
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

// NextBatch emits whole runs of an inner group per seek; the budget is
// checked once per group found.
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
		for ; n < len(dst) && m.gpos < len(m.group); n++ {
			dst[n] = m.alloc.concat(m.orows[m.oi], m.group[m.gpos])
			m.gpos++
		}
	}
	return n, nil
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
