package exec

// The ORDER BY / LIMIT operators. topkIter is a heap: it consumes its whole
// input but holds at most k rows, then emits them in (key, tie) order —
// n·log k comparisons, and only k rows ever flow upstream; with no bound it
// holds every row and is the sort. limitIter is pure early termination: it
// stops pulling from its child after k rows, so the subtree below never
// produces — or pays for — the rows the limit cuts off. Neither operator
// charges anything itself (the heap lives in memory); their effect on
// charged cost is entirely in what the subtree below no longer does.

import (
	"fmt"

	"predplace/internal/expr"
	"predplace/internal/plan"
)

// topkIter implements plan.TopK. The heap is a worst-at-root max-heap over
// the output ordering (heap[0] is the current k-th row): a new row is
// admitted only when it beats the current boundary, displacing it. The
// first NextBatch call drains the input into the heap; emission hands out the
// sorted pooled storage in runs.
type topkIter struct {
	e      *Env
	node   *plan.TopK
	in     Iterator
	keyIdx int
	tieIdx []int
	// heap is pooled storage holding ≤ k rows; after fill it is heapsorted
	// into output order and emitted from pos.
	heap   []expr.Row
	pos    int
	filled bool
	// copies: the heap's rows are the query's, copied into out at emit.
	copies bool
	out    rowAlloc
	tc     *opCounters // nil unless profiling
}

func newTopK(e *Env, t *plan.TopK, rs *slabPool) (Iterator, error) {
	// A bounded heap making result rows is the last operator that can drop
	// them: it reads the query's pool and copies the k survivors out at emit.
	copies := rs == nil && t.K >= 0
	if copies {
		rs = e.below(rs)
	}
	in, err := buildIn(e, t.Input, rs)
	if err != nil {
		return nil, err
	}
	keyIdx := plan.ColIndex(t.Input, t.Key)
	if keyIdx < 0 {
		return nil, fmt.Errorf("exec: TopK key %s not in input columns", t.Key)
	}
	tieIdx := make([]int, 0, len(t.Tie))
	for _, ref := range t.Tie {
		i := plan.ColIndex(t.Input, ref)
		if i < 0 {
			return nil, fmt.Errorf("exec: TopK tie column %s not in input columns", ref)
		}
		tieIdx = append(tieIdx, i)
	}
	it := &topkIter{e: e, node: t, in: in, keyIdx: keyIdx, tieIdx: tieIdx, copies: copies}
	if e.prof != nil {
		it.tc = e.nodeProf(t)
	}
	return it, nil
}

// less is the output ordering: key first (flipped under Desc), then the tie
// columns ascending regardless of direction. Rows equal under it are
// identical after projection, so the result is the same sequence even when
// equal keys arrive in an exchange's nondeterministic order.
func (t *topkIter) less(a, b expr.Row) bool {
	c := a[t.keyIdx].Compare(b[t.keyIdx])
	if c != 0 {
		if t.node.Desc {
			return c > 0
		}
		return c < 0
	}
	for _, i := range t.tieIdx {
		if cc := a[i].Compare(b[i]); cc != 0 {
			return cc < 0
		}
	}
	return false
}

// siftUp restores the worst-at-root property after an append at i.
func (t *topkIter) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(t.heap[p], t.heap[i]) {
			return
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

// siftDown restores the property below i over the first n entries.
func (t *topkIter) siftDown(i, n int) {
	for {
		worst := i
		if l := 2*i + 1; l < n && t.less(t.heap[worst], t.heap[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.less(t.heap[worst], t.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.heap[i], t.heap[worst] = t.heap[worst], t.heap[i]
		i = worst
	}
}

// offer admits a row into the heap: appended while under k (always, with no
// bound), and past k only by displacing the current boundary row when it
// beats it.
func (t *topkIter) offer(row expr.Row) {
	if t.node.K < 0 || len(t.heap) < int(t.node.K) {
		t.heap = append(t.heap, row)
		t.siftUp(len(t.heap) - 1)
		if t.tc != nil {
			t.tc.heapPushed.Add(1)
		}
		return
	}
	if !t.less(row, t.heap[0]) {
		return
	}
	t.heap[0] = row
	t.siftDown(0, len(t.heap))
	if t.tc != nil {
		t.tc.heapPushed.Add(1)
		t.tc.heapEvicted.Add(1)
	}
}

// fill drains the input into the heap, checking for an abort after each
// batch it pulls, then heapsorts the survivors
// in place into output order. Runs once; NextBatch afterwards only copies
// out.
func (t *topkIter) fill() error {
	if t.filled {
		return nil
	}
	t.filled = true
	if t.heap == nil {
		t.heap = getRowBuf(0)
	}
	buf := getRowBuf(t.e.batchSize())
	defer putRowBuf(buf)
	for {
		n, err := t.in.NextBatch(buf)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if err := t.e.checkAbort(); err != nil {
			return err
		}
		for _, row := range buf[:n] {
			t.offer(row)
		}
	}
	// In-place heapsort: repeatedly swap the worst (root) to the end. The
	// worst-at-root heap leaves the array ascending in output order.
	for n := len(t.heap); n > 1; n-- {
		t.heap[0], t.heap[n-1] = t.heap[n-1], t.heap[0]
		t.siftDown(0, n-1)
	}
	return nil
}

func (t *topkIter) Open() error {
	t.filled = false
	t.pos = 0
	if t.heap != nil {
		t.heap = t.heap[:0]
	}
	return t.in.Open()
}

// NextBatch hands the next run of sorted survivors to dst — no comparison;
// all the work happened in fill.
func (t *topkIter) NextBatch(dst []expr.Row) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if err := t.fill(); err != nil {
		return 0, err
	}
	n := copy(dst, t.heap[t.pos:])
	t.pos += n
	for i := 0; t.copies && i < n; i++ {
		dst[i] = t.out.concat(dst[i], nil)
	}
	return n, nil
}

func (t *topkIter) Close() error {
	// A heap that outgrew a batch buffer is a whole sort's rows: the pool
	// would keep them alive, so it goes to the collector instead.
	if cap(t.heap) <= DefaultBatchSize {
		putRowBuf(t.heap)
	}
	t.heap = nil
	return t.in.Close()
}

// limitIter implements plan.Limit: pass through k rows, then stop pulling.
// The child subtree was built serial (orderedNodes), so under an ordered
// limit the index scan's ascending key order survives to the root and the k
// rows delivered are exactly the ORDER BY's first k.
type limitIter struct {
	in   Iterator
	k    int64
	seen int64
	cut  bool
	tc   *opCounters // nil unless profiling
}

func newLimit(e *Env, l *plan.Limit, rs *slabPool) (Iterator, error) {
	in, err := buildIn(e, l.Input, rs)
	if err != nil {
		return nil, err
	}
	it := &limitIter{in: in, k: l.K}
	if e.prof != nil {
		it.tc = e.nodeProf(l)
	}
	return it, nil
}

func (l *limitIter) Open() error {
	l.seen, l.cut = 0, false
	return l.in.Open()
}

// shortCircuit records (once) that the limit cut its child off early.
func (l *limitIter) shortCircuit() {
	if l.tc != nil && !l.cut {
		l.tc.shortCircuit.Add(1)
	}
	l.cut = true
}

// NextBatch hands up one row per call, whatever the width: an operator asked
// for one row reads no input ahead of it (a hash join asked for n pairs
// pulls n outer rows, and the first may yield them all), so what the limit
// cuts off is never produced or charged, and is the same at every width.
func (l *limitIter) NextBatch(dst []expr.Row) (int, error) {
	if l.seen >= l.k {
		l.shortCircuit()
		return 0, nil
	}
	n, err := l.in.NextBatch(dst[:min(len(dst), 1)])
	if err != nil {
		return 0, err
	}
	l.seen += int64(n)
	return n, nil
}

func (l *limitIter) Close() error { return l.in.Close() }
