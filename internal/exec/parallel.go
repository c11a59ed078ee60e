package exec

// Intra-query parallel operators (Env.Parallelism > 1): an exchange that
// range-partitions a heap scan across workers, and a filter that evaluates
// an expensive predicate on a bounded worker pool. Both deliver rows to the
// consumer through a fan-in channel in batches; row order is not preserved
// (the serial Volcano tree, the default, is untouched). Charged cost is
// parallelism-invariant: every page is read once per scan pass and every
// row is evaluated exactly once, on atomic counters — only wall-clock time
// changes. With predicate caching ON, concurrent misses on one binding may
// invoke the function more than once (each invocation is still counted);
// see DESIGN.md §11.

import (
	"fmt"
	"sync"

	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// parallelBatch is the number of rows grouped per channel send, amortizing
// synchronization across the pipeline.
const parallelBatch = 64

// rowBatch is one channel message from a parallel worker: rows, or a
// terminal error.
type rowBatch struct {
	rows []expr.Row
	err  error
}

// fanIn is the consumer side shared by all parallel operators: workers send
// rowBatches into out; the single consumer drains them via pull. shutdown
// tears the pipeline down without leaking goroutines.
type fanIn struct {
	out     chan rowBatch
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	cur     []expr.Row
	pos     int
	done    bool
	err     error
}

// init sizes the fan-in channels; buffers is the channel capacity in
// batches.
func (f *fanIn) init(buffers int) {
	f.out = make(chan rowBatch, buffers)
	f.stop = make(chan struct{})
	f.cur, f.pos, f.done, f.err = nil, 0, false, nil
}

// goCloser spawns the goroutine that closes out once every producer
// registered on wg has finished. Call after all wg.Add calls.
func (f *fanIn) goCloser() {
	go func() {
		f.wg.Wait()
		close(f.out)
	}()
}

// send delivers a batch unless the consumer has shut down; reports whether
// the batch was accepted.
func (f *fanIn) send(b rowBatch) bool {
	select {
	case f.out <- b:
		return true
	case <-f.stop:
		return false
	}
}

// pull copies up to len(dst) rows out of the workers' fan-in (order
// unspecified). Once at least one row is buffered it refills without
// blocking, so a partially filled batch flows downstream instead of stalling
// on slow workers.
func (f *fanIn) pull(dst []expr.Row) (int, error) {
	n := 0
	for n < len(dst) {
		if f.pos < len(f.cur) {
			c := copy(dst[n:], f.cur[f.pos:])
			f.pos += c
			n += c
			continue
		}
		if !f.refill(n == 0) {
			if f.err != nil {
				return 0, f.err
			}
			break
		}
	}
	return n, nil
}

// refill consumes the next worker batch into cur, recycling the drained
// buffer. With block=false it returns immediately when no batch is ready.
// Returns false on exhaustion, error (stored in f.err), or would-block.
func (f *fanIn) refill(block bool) bool {
	if f.done {
		return false
	}
	if f.cur != nil {
		putRowBuf(f.cur)
		f.cur = nil
		f.pos = 0
	}
	var b rowBatch
	var ok bool
	if block {
		b, ok = <-f.out
	} else {
		select {
		case b, ok = <-f.out:
		default:
			return false
		}
	}
	if !ok {
		f.done = true
		return false
	}
	if b.err != nil {
		f.done = true
		f.err = b.err
		return false
	}
	f.cur, f.pos = b.rows, 0
	return true
}

// shutdown signals the workers to stop, drains the output channel so
// blocked senders unblock, and waits for every goroutine to exit. In-flight
// and half-consumed batches are recycled to the buffer pool — an abandoned
// pipeline (consumer error, budget abort, cancellation) must not strand
// pooled buffers. Safe to call more than once, and a no-op if the operator
// was never opened.
func (f *fanIn) shutdown() {
	if f.out == nil {
		return
	}
	f.stopped.Do(func() { close(f.stop) })
	for b := range f.out {
		// recycle in-flight batches until the closer closes the channel
		putRowBuf(b.rows)
	}
	f.wg.Wait()
	if f.cur != nil {
		putRowBuf(f.cur)
		f.cur, f.pos = nil, 0
	}
	f.done = true
}

// parallelScanIter is the exchange operator over a heap scan: the file's
// pages are split into one contiguous range per worker, each worker scans
// and decodes its range independently, and decoded rows fan in to the
// consumer. Every page is still read exactly once, so physical I/O matches
// the serial scan (the sequential/random split may shift — the charged
// total does not).
type parallelScanIter struct {
	e   *Env
	tab *catalog.Table
	// heap is the table's heap viewed through the query's I/O tracker,
	// resolved once before the workers spawn (the tracker is sharded and
	// concurrency-safe, so workers share one view).
	heap   *storage.HeapFile
	fan    fanIn
	pool   *slabPool // the partitions' rowAlloc pool (nil: fresh slabs)
	probes []tableProbe
	tc     *opCounters
}

func newParallelSeqScan(e *Env, s *plan.SeqScan, rs *slabPool) (Iterator, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tab.Heap == nil || tab.Codec == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", s.Table)
	}
	it := &parallelScanIter{e: e, tab: tab, pool: rs}
	if e.prof != nil {
		it.tc = e.nodeProf(s)
	}
	return it, nil
}

func (s *parallelScanIter) Open() error {
	// Resolved once before the workers spawn; the probe list and its
	// filters are immutable after the transfer prepass, so workers share
	// them without locks.
	s.probes = s.e.transferProbes(s.tab.Name)
	s.heap = s.e.heap(s.tab)
	n := s.tab.Heap.NumPages()
	w := s.e.workers()
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	s.fan.init(w * 2)
	base, extra := n/w, n%w
	start := 0
	for i := 0; i < w; i++ {
		size := base
		if i < extra {
			size++
		}
		lo, hi := start, start+size
		start = hi
		s.fan.wg.Add(1)
		go s.scanPartition(lo, hi)
	}
	s.fan.goCloser()
	return nil
}

// scanPartition scans pages [lo, hi), decoding rows straight from pinned
// page memory into per-worker slab rows and batching them to the consumer
// in exchangeBatch-sized messages (pooled buffers).
func (s *parallelScanIter) scanPartition(lo, hi int) {
	defer s.fan.wg.Done()
	it := s.heap.ScanRange(lo, hi)
	defer it.Close()
	bs := s.e.exchangeBatch()
	width := len(s.tab.Columns)
	alloc := rowAlloc{pool: s.pool}
	var memo catalog.DecodeMemo
	buf := getRowBuf(bs)[:0]
	count := 0
	for {
		rec, _, ok, err := it.NextRef()
		if err != nil {
			putRowBuf(buf)
			s.fan.send(rowBatch{err: err})
			return
		}
		if !ok {
			break
		}
		count++
		if count%1024 == 0 {
			if err := s.e.checkAbort(); err != nil {
				putRowBuf(buf)
				s.fan.send(rowBatch{err: err})
				return
			}
		}
		if len(s.probes) > 0 {
			keep, err := s.e.probeRecord(s.tab.Codec, rec, s.probes, s.tc)
			if err != nil {
				putRowBuf(buf)
				s.fan.send(rowBatch{err: err})
				return
			}
			if !keep {
				continue
			}
		}
		row := alloc.next(width)
		if err := s.tab.Codec.DecodeIntoMemo(rec, row, &memo); err != nil {
			putRowBuf(buf)
			s.fan.send(rowBatch{err: err})
			return
		}
		buf = append(buf, row)
		if len(buf) == bs {
			if !s.fan.send(rowBatch{rows: buf}) {
				putRowBuf(buf)
				return
			}
			buf = getRowBuf(bs)[:0]
		}
	}
	if len(buf) > 0 {
		if !s.fan.send(rowBatch{rows: buf}) {
			putRowBuf(buf)
		}
	} else {
		putRowBuf(buf)
	}
}

// NextBatch drains the partitions' exchange messages.
func (s *parallelScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.fan.out == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on SeqScan(%s)", s.tab.Name)
	}
	return s.fan.pull(dst)
}

func (s *parallelScanIter) Close() error {
	s.fan.shutdown()
	return nil
}

// parallelFilterIter evaluates one expensive predicate on a bounded worker
// pool: a router drains the input into batches and the workers evaluate the
// predicate concurrently, so costly invocations overlap. Each input row is
// evaluated exactly once, keeping invocation counts (and charged cost, with
// caching off) identical to the serial filter.
type parallelFilterIter struct {
	e     *Env
	in    Iterator
	pred  *compiledPred
	tasks chan []expr.Row
	fan   fanIn
}

func newParallelFilter(e *Env, in Iterator, cp *compiledPred) Iterator {
	return &parallelFilterIter{e: e, in: in, pred: cp}
}

func (f *parallelFilterIter) Open() error {
	if err := f.in.Open(); err != nil {
		return err
	}
	w := f.e.workers()
	f.fan.init(w)
	f.tasks = make(chan []expr.Row, w)
	f.fan.wg.Add(1)
	go f.route()
	for i := 0; i < w; i++ {
		f.fan.wg.Add(1)
		go f.evalWorker()
	}
	f.fan.goCloser()
	return nil
}

// route drains the input one NextBatch call per task batch and hands pooled
// batches to the worker pool.
func (f *parallelFilterIter) route() {
	defer f.fan.wg.Done()
	defer close(f.tasks)
	bs := f.e.exchangeBatch()
	for {
		buf := getRowBuf(bs)
		m, err := f.in.NextBatch(buf)
		if err != nil {
			putRowBuf(buf)
			f.fan.send(rowBatch{err: err})
			return
		}
		if m == 0 {
			putRowBuf(buf)
			return
		}
		select {
		case f.tasks <- buf[:m]:
		case <-f.fan.stop:
			putRowBuf(buf)
			return
		}
	}
}

// evalWorker applies the predicate to whole batches (one holdsBatch — and
// thus one predicate-cache shard-lock round — per batch), compacting
// passing rows in place and forwarding them. Each input row is still
// evaluated exactly once.
func (f *parallelFilterIter) evalWorker() {
	defer f.fan.wg.Done()
	count := 0
	var keep []bool
	var sc predScratch
	for batch := range f.tasks {
		if cap(keep) < len(batch) {
			keep = make([]bool, len(batch))
		}
		if err := f.pred.holdsBatch(f.e, batch, keep[:len(batch)], &count, &sc); err != nil {
			putRowBuf(batch)
			f.fan.send(rowBatch{err: err})
			return
		}
		out := batch[:0]
		for i, row := range batch {
			if keep[i] {
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			if !f.fan.send(rowBatch{rows: out}) {
				putRowBuf(batch)
				return
			}
		} else {
			putRowBuf(batch)
		}
	}
}

// NextBatch drains the workers' fan-in.
func (f *parallelFilterIter) NextBatch(dst []expr.Row) (int, error) {
	if f.fan.out == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on parallel Filter")
	}
	return f.fan.pull(dst)
}

func (f *parallelFilterIter) Close() error {
	f.fan.shutdown()
	return f.in.Close()
}
