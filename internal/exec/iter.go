package exec

import (
	"fmt"
	"sync/atomic"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// Iterator is the operator contract: every operator hands rows up a batch
// at a time, and a batch may be one row wide.
type Iterator interface {
	// Open prepares the iterator for NextBatch calls.
	Open() error
	// NextBatch fills dst with up to len(dst) rows and returns how many it
	// produced. n == 0 with a nil error signals exhaustion, except that an
	// empty dst returns (0, nil) without consuming input; errors imply
	// n == 0 — an erroring call produces no rows. Implementations must not
	// retain dst (or any reslice of it) across calls; rows written into dst
	// are owned by the caller.
	NextBatch(dst []expr.Row) (int, error)
	// Close releases resources. Safe to call more than once.
	Close() error
}

// next pulls exactly one row from it. It is how the two consumers that must
// not read ahead pull: the outer side of a nested-loop or index-nested-loop
// join, whose page accesses interleave with the inner side's in the query's
// cold-pool ledger — fetching outer rows early would change what the inner
// side finds resident, and so the charged cost.
func next(it Iterator) (expr.Row, bool, error) {
	var one [1]expr.Row
	n, err := it.NextBatch(one[:])
	if err != nil || n == 0 {
		return nil, false, err
	}
	return one[0], true, nil
}

// Build compiles a physical plan into an iterator tree. When the Env is
// tracing (Run always traces), every operator is wrapped with a per-node
// row counter so EXPLAIN ANALYZE can print actual cardinalities next to the
// optimizer's estimates. With profiling on the wrapper additionally measures
// wall time and attributes physical I/O per operator.
//
// Build also decides, from the plan alone, where each operator's rows live
// (DESIGN.md §12). The root's rows escape into Result.Rows, and a result row
// is made by the last operator that can drop it: a filter and a bounded TopK
// read the query's pool and copy out what they keep; a Limit and the sort
// pass rows on, and a root join or scan makes them. A join copies what it
// emits, so everything below a join carves from the query's pool, or from
// the pool of the nested-loop inner subtree it sits in.
func Build(e *Env, n plan.Node) (Iterator, error) {
	e.ordered = nil
	if e.workers() > 1 {
		e.ordered = orderedNodes(n)
	}
	it, err := buildIn(e, n, nil)
	if p, ok := it.(*profIter); ok {
		p.root = true
	}
	return it, err
}

// orderedNodes returns the nodes of root that must be built from serial
// operators because a consumer relies on the order they deliver — an
// exchange does not keep its segment's order. Those are
// the whole plan under a Limit root — which rows the limit keeps, and what
// the ones it cuts off would have charged, must not depend on the worker
// count — and the chain under each merge-join side the plan marks as
// arriving sorted: through filters and along the outer side of hash and
// nested-loop joins (which pass the outer's order on), down to the index
// scan or merge join that makes the order.
func orderedNodes(root plan.Node) map[plan.Node]bool {
	set := map[plan.Node]bool{}
	mark := func(n plan.Node) {
		for {
			set[n] = true
			switch t := n.(type) {
			case *plan.Filter:
				n = t.Input
			case *plan.Join:
				if t.Method == plan.MergeJoin {
					return
				}
				n = t.Outer
			default:
				return
			}
		}
	}
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Limit:
			plan.Walk(t.Input, func(n plan.Node) { set[n] = true })
		case *plan.Join:
			if t.Method == plan.MergeJoin {
				if !t.SortOuter {
					mark(t.Outer)
				}
				if !t.SortInner {
					mark(t.Inner)
				}
			}
		}
	})
	return set
}

// buildIn builds n with its output rows carved from rs (nil: fresh slabs):
// the serial operator, or where n heads a segment an exchange over copies
// of it.
func buildIn(e *Env, n plan.Node, rs *slabPool) (Iterator, error) {
	mk := build
	if e.segment(n) {
		mk = newExchange
	}
	it, err := mk(e, n, rs)
	if err != nil {
		return nil, err
	}
	return e.traced(n, it), nil
}

// traced wraps n's operator in the node's row counter — with profiling on,
// in its profiler.
func (e *Env) traced(n plan.Node, it Iterator) Iterator {
	if e.prof != nil {
		return &profIter{e: e, in: it, rows: e.nodeCounter(n), c: e.nodeProf(n)}
	}
	if e.trace != nil {
		return &countIter{in: it, rows: e.nodeCounter(n)}
	}
	return it
}

func build(e *Env, n plan.Node, rs *slabPool) (Iterator, error) {
	switch t := n.(type) {
	case *plan.SeqScan:
		return newSeqScan(e, t, rs)
	case *plan.IndexScan:
		return newIndexScan(e, t, rs)
	case *plan.Filter:
		f, err := compileFilter(e, t, rs)
		if err != nil {
			return nil, err
		}
		if f.in, err = buildIn(e, t.Input, e.below(rs)); err != nil {
			return nil, err
		}
		return &f, nil
	case *plan.Join:
		return buildJoin(e, t, rs)
	case *plan.TopK:
		return newTopK(e, t, rs)
	case *plan.Limit:
		return newLimit(e, t, rs)
	}
	return nil, fmt.Errorf("exec: unknown plan node %T", n)
}

// below returns the pool an operator that copies what it emits — a join, a
// filter or bounded TopK making result rows — hands to its inputs: rs itself
// inside a nested-loop inner subtree, the query's pool under the operator
// that feeds the result.
func (e *Env) below(rs *slabPool) *slabPool {
	if rs == nil {
		return &e.slabs
	}
	return rs
}

// seqScanIter reads a heap file front to back — as a part of an exchange,
// its contiguous share of the file's pages. With predicate transfer on,
// received Bloom filters are probed on the raw record (decoding only the
// join-key columns) before the full-row decode, so pruned rows cost one
// partial decode and a probe — never a row allocation.
type seqScanIter struct {
	e   *Env
	tab *catalog.Table
	// The scan is part `part` of `parts` (0 of 1 when serial); xchg is the
	// exchange whose shutdown it watches for, nil outside one.
	part, parts int
	xchg        *fanIn
	it          *storage.HeapIter
	count       int
	alloc       rowAlloc
	memo        catalog.DecodeMemo
	probes      []tableProbe
	tc          *opCounters
}

func newSeqScan(e *Env, s *plan.SeqScan, rs *slabPool) (*seqScanIter, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tab.Heap == nil || tab.Codec == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", s.Table)
	}
	it := &seqScanIter{e: e, tab: tab, parts: 1, alloc: rowAlloc{pool: rs}}
	if e.prof != nil {
		it.tc = e.nodeProf(s)
	}
	return it, nil
}

// Open positions the scan on its share of the pages: every page is in
// exactly one part, so the parts together read what the serial scan reads.
// The probe list and its filters are immutable after the transfer prepass,
// so parts share them without locks.
func (s *seqScanIter) Open() error {
	n := s.tab.Heap.NumPages()
	s.it = s.e.heap(s.tab).ScanRange(n*s.part/s.parts, n*(s.part+1)/s.parts)
	s.probes = s.e.transferProbes(s.tab.Name)
	return nil
}

// NextBatch references records in place on the pinned page (no per-record
// copy) and decodes them straight into slab-carved rows, checking the
// budget — and for its exchange's shutdown — every 1024 records scanned.
func (s *seqScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.it == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on SeqScan(%s)", s.tab.Name)
	}
	width := len(s.tab.Columns)
	n := 0
	for n < len(dst) {
		rec, _, ok, err := s.it.NextRef()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		s.count++
		if s.count%1024 == 0 {
			if err := s.e.checkAbort(); err != nil {
				return 0, err
			}
			if s.xchg.stopping() {
				return 0, errExchangeStopped
			}
		}
		if len(s.probes) > 0 {
			keep, err := s.e.probeRecord(s.tab.Codec, rec, s.probes, s.tc)
			if err != nil {
				return 0, err
			}
			if !keep {
				continue
			}
		}
		row := s.alloc.next(width)
		if err := s.tab.Codec.DecodeIntoMemo(rec, row, &s.memo); err != nil {
			return 0, err
		}
		dst[n] = row
		n++
	}
	return n, nil
}

func (s *seqScanIter) Close() error {
	if s.it != nil {
		s.it.Close()
		s.it = nil
	}
	return nil
}

// indexScanIter drives a B-tree equality or range scan, fetching matching
// heap tuples (random I/O per fetch). Equality probes materialize the
// (typically small) TID list the B-tree returns; range scans stream from
// the B-tree's leaf iterator lazily, so a wide range never materializes
// every TID up front. Close releases both.
type indexScanIter struct {
	e    *Env
	node *plan.IndexScan
	tab  *catalog.Table
	// heap is the table's heap file viewed through the query's I/O tracker,
	// resolved once at Open so per-tuple fetches don't re-wrap it.
	heap   *storage.HeapFile
	tids   []storage.TID
	pos    int
	rng    *btree.Iter
	count  int
	alloc  rowAlloc
	memo   catalog.DecodeMemo
	probes []tableProbe
	tc     *opCounters
}

func newIndexScan(e *Env, s *plan.IndexScan, rs *slabPool) (Iterator, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if !tab.HasIndex(s.Col) {
		return nil, fmt.Errorf("exec: no index on %s.%s", s.Table, s.Col)
	}
	it := &indexScanIter{e: e, node: s, tab: tab, alloc: rowAlloc{pool: rs}}
	if e.prof != nil {
		it.tc = e.nodeProf(s)
	}
	return it, nil
}

func (s *indexScanIter) Open() error {
	tree := s.e.index(s.tab.Indexes[s.node.Col])
	s.heap = s.e.heap(s.tab)
	s.tids = nil
	s.pos, s.count = 0, 0
	s.rng = nil
	s.probes = s.e.transferProbes(s.tab.Name)
	switch {
	case s.node.Eq != nil:
		if s.node.Eq.Kind != expr.TInt {
			return fmt.Errorf("exec: index scan requires int key")
		}
		s.tids = tree.Probe(s.node.Eq.I)
	default:
		lo := int64(-1) << 62
		hi := int64(1)<<62 - 1
		if s.node.Lo != nil {
			lo = s.node.Lo.I
		}
		if s.node.Hi != nil {
			hi = s.node.Hi.I
		}
		s.rng = tree.Range(lo, hi)
	}
	return nil
}

// nextTID yields the next matching TID: from the probe result for equality
// scans, streamed from the B-tree leaf chain for range scans.
func (s *indexScanIter) nextTID() (storage.TID, bool) {
	if s.rng != nil {
		ent, ok := s.rng.Next()
		return ent.TID, ok
	}
	if s.pos >= len(s.tids) {
		return storage.TID{}, false
	}
	tid := s.tids[s.pos]
	s.pos++
	return tid, true
}

// NextBatch fetches matching heap tuples, decoding each record in place
// under its page pin (HeapFile.View) into slab-carved rows instead of
// copying record bytes out. Index fetches already paid the random I/O, so
// received filters are probed on the decoded row; pruning saves the
// operators above.
func (s *indexScanIter) NextBatch(dst []expr.Row) (int, error) {
	width := len(s.tab.Columns)
	var row expr.Row
	decode := func(rec []byte) error { return s.tab.Codec.DecodeIntoMemo(rec, row, &s.memo) }
	n := 0
	for n < len(dst) {
		tid, ok := s.nextTID()
		if !ok {
			break
		}
		s.count++
		if s.count%1024 == 0 {
			if err := s.e.checkAbort(); err != nil {
				return 0, err
			}
		}
		row = s.alloc.next(width)
		if err := s.heap.View(tid, decode); err != nil {
			return 0, err
		}
		if len(s.probes) > 0 && !s.e.probeRow(row, s.probes, s.tc) {
			continue
		}
		dst[n] = row
		n++
	}
	return n, nil
}

func (s *indexScanIter) Close() error {
	s.tids = nil
	s.rng = nil
	s.pos = 0
	return nil
}

// compileFilter is the Filter build rule, for build and the exchange alike:
// f's operator but for its input, which carves from e.below(rs). The
// predicate is resolved against the input's columns; with profiling on it
// counts into f's node. A filter making result rows (rs == nil) is the last
// operator that can drop them, so it reads the query's pool and copies out
// what it keeps: a chain of filters copies once, at its top.
func compileFilter(e *Env, f *plan.Filter, rs *slabPool) (filterIter, error) {
	cp, err := compilePred(e, f.Pred, f.Input.Cols())
	if err != nil {
		return filterIter{}, err
	}
	if e.prof != nil {
		cp.prof = e.nodeProf(f)
	}
	return filterIter{e: e, pred: cp, copies: rs == nil}, nil
}

// filterIter applies one predicate, dropping rows that fail it.
type filterIter struct {
	e     *Env
	in    Iterator
	pred  *compiledPred
	count int
	// copies: the input's rows are the query's; the kept ones go to out.
	copies bool
	out    rowAlloc
	// input buffer, per-row verdicts, predicate scratch
	buf  []expr.Row
	keep []bool
	sc   predScratch
}

func (f *filterIter) Open() error { return f.in.Open() }

// NextBatch pulls a batch from the input and evaluates the predicate over
// the whole batch (holdsBatch), compacting survivors into dst. Looping
// until at least one row passes keeps the n==0-means-exhausted contract.
func (f *filterIter) NextBatch(dst []expr.Row) (int, error) {
	want := len(dst)
	if want == 0 {
		return 0, nil
	}
	if cap(f.buf) < want {
		f.buf = make([]expr.Row, want)
		f.keep = make([]bool, want)
	}
	for {
		m, err := f.in.NextBatch(f.buf[:want])
		if err != nil {
			return 0, err
		}
		if m == 0 {
			return 0, nil
		}
		if err := f.pred.holdsBatch(f.e, f.buf[:m], f.keep[:m], &f.count, &f.sc); err != nil {
			return 0, err
		}
		n := 0
		for i := 0; i < m; i++ {
			if f.keep[i] {
				dst[n] = f.buf[i]
				if f.copies {
					dst[n] = f.out.concat(f.buf[i], nil)
				}
				n++
			}
		}
		if n > 0 {
			return n, nil
		}
	}
}

func (f *filterIter) Close() error { return f.in.Close() }

// countIter counts the rows an operator produces (accumulating across
// nested-loop rescans, and across the workers' copies inside a segment) for
// EXPLAIN ANALYZE.
type countIter struct {
	in   Iterator
	rows *atomic.Int64
}

func (c *countIter) Open() error { return c.in.Open() }

func (c *countIter) NextBatch(dst []expr.Row) (int, error) {
	n, err := c.in.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	c.rows.Add(int64(n))
	return n, nil
}

func (c *countIter) Close() error { return c.in.Close() }
