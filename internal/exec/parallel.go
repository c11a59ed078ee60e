package exec

// Intra-query parallelism (Env.Parallelism > 1) is one operator: the
// exchange. It runs W copies of a serial segment of the plan — the heap
// scan, filter and hash-join probe loops every serial plan runs, each copy
// on its own goroutine over its own share of the input — and delivers their
// rows to the consumer through a fan-in channel in messages; row order is
// not preserved (the serial Volcano tree, the default, is untouched).
// Charged cost is parallelism-invariant: every page is read once per scan
// pass and every row is evaluated exactly once, on atomic counters — only
// wall-clock time changes. With predicate caching ON, concurrent misses on
// one binding may invoke the function more than once (each invocation is
// still counted); see DESIGN.md §11.

import (
	"errors"
	"fmt"
	"sync"

	"predplace/internal/expr"
	"predplace/internal/plan"
)

// parallelBatch is the number of rows grouped per channel send, amortizing
// synchronization across the pipeline.
const parallelBatch = 64

// rowBatch is one channel message from an exchange worker: rows, or a
// terminal error, or the value a worker's segment panicked with.
type rowBatch struct {
	rows     []expr.Row
	err      error
	panicked any
}

// fanIn is the consumer side of an exchange: workers send rowBatches into
// out; the single consumer drains them via pull. shutdown tears the pipeline
// down without leaking goroutines.
type fanIn struct {
	out     chan rowBatch
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	cur     []expr.Row
	pos     int
	done    bool
	err     error
	// panicked is what a worker's segment panicked with, which the
	// exchange raises again (exchangeIter.Close).
	panicked any
}

// init sizes the fan-in channels; buffers is the channel capacity in
// batches.
func (f *fanIn) init(buffers int) {
	f.out = make(chan rowBatch, buffers)
	f.stop = make(chan struct{})
	f.cur, f.pos, f.done, f.err, f.panicked = nil, 0, false, nil, nil
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

// stopping reports whether the consumer has shut the exchange down. The
// parts of a segment ask where they check for cancellation, so a worker
// whose filter rejects every row — and so never reaches send — still stops
// mid-partition. A nil fanIn (an operator outside any exchange) never stops.
func (f *fanIn) stopping() bool {
	if f == nil {
		return false
	}
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// pull copies up to len(dst) rows out of the workers' fan-in (order
// unspecified). Once at least one row is buffered it refills without
// blocking, so a partially filled batch flows downstream instead of stalling
// on slow workers. It stops at a worker's panic, kept in panicked.
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
	if b.err != nil || b.panicked != nil {
		f.done = true
		f.err, f.panicked = b.err, b.panicked
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
		if f.panicked == nil {
			f.panicked = b.panicked
		}
	}
	f.wg.Wait()
	if f.cur != nil {
		putRowBuf(f.cur)
		f.cur, f.pos = nil, 0
	}
	f.done = true
}

// errExchangeStopped unwinds a worker's segment once the consumer has shut
// the exchange down; shutdown discards it with the rest of what is in flight.
var errExchangeStopped = errors.New("exec: exchange stopped")

// segment reports whether n heads a segment, the one place the worker count
// chooses an operator: buildIn plants an exchange there, and the exchange
// keeps in its workers every input that is a segment in its own right. A
// segment is a heap scan, split by pages; a hash join, its table built once
// and probed by every worker; an expensive filter; or any filter over a
// segment — none of it under a consumer that relies on row order, nor in a
// nested loop's rebuilt inner (orderedNodes).
func (e *Env) segment(n plan.Node) bool {
	if e.workers() == 1 || e.ordered[n] {
		return false
	}
	switch t := n.(type) {
	case *plan.SeqScan:
		return true
	case *plan.Join:
		return t.Method == plan.HashJoin
	case *plan.Filter:
		return t.Pred.IsExpensive() || e.segment(t.Input)
	}
	return false
}

// exchangeIter is Volcano's exchange: parts holds one serial copy of the
// segment per worker, each driven by one goroutine that fills exchangeBatch-
// row messages for the consumer's fanIn. The copies share what the segment
// has one of — a hash join's build side (hashBuild), an input that pages
// cannot split (sharedSource), the compiled predicates, the slab pool — and
// own the rest, so no operator loop knows whether it runs in a worker.
type exchangeIter struct {
	e     *Env
	parts []Iterator
	fan   fanIn
}

func newExchange(e *Env, n plan.Node, rs *slabPool) (Iterator, error) {
	x := &exchangeIter{e: e, parts: make([]Iterator, e.workers())}
	part, err := x.compile(n, rs)
	if err != nil {
		return nil, err
	}
	for i := range x.parts {
		x.parts[i] = part(i)
	}
	return x, nil
}

// compile builds what the workers' copies of segment node n share and
// returns the maker of worker i's copy. The head's copies are bare: the
// exchange itself is what buildIn counts and times for the head, once, on
// the consumer's side.
func (x *exchangeIter) compile(n plan.Node, rs *slabPool) (func(i int) Iterator, error) {
	e := x.e
	switch t := n.(type) {
	case *plan.SeqScan:
		scan, err := newSeqScan(e, t, rs)
		if err != nil {
			return nil, err
		}
		return func(i int) Iterator {
			s := *scan // sharing its gates; Open gives each part tallies of its own
			s.part, s.parts, s.xchg = i, len(x.parts), &x.fan
			return &s
		}, nil
	case *plan.Filter:
		if r := e.runs[t]; r != nil { // the scan's parts run t's run as gates
			return x.compile(r.scan, rs)
		}
		filter, err := compileFilter(e, t, rs)
		if err != nil {
			return nil, err
		}
		in, err := x.input(t.Input, e.below(rs))
		if err != nil {
			return nil, err
		}
		return func(i int) Iterator {
			f := filter
			f.in = in(i)
			return &f
		}, nil
	case *plan.Join:
		outer, err := x.input(t.Outer, e.below(rs))
		if err != nil {
			return nil, err
		}
		b, err := newHashBuild(e, t, rs)
		if err != nil {
			return nil, err
		}
		return func(i int) Iterator { return b.probe(outer(i), rs) }, nil
	}
	return nil, fmt.Errorf("exec: plan node %T cannot head a segment", n)
}

// input compiles the input m of a segment node: counted copies of m in the
// workers when m is a segment itself, otherwise the one serial iterator
// they all pull from.
func (x *exchangeIter) input(m plan.Node, rs *slabPool) (func(i int) Iterator, error) {
	if !x.e.segment(m) {
		in, err := buildIn(x.e, m, rs)
		if err != nil {
			return nil, err
		}
		src := &sharedSource{in: in, xchg: &x.fan}
		return func(int) Iterator { return src }, nil
	}
	part, err := x.compile(m, rs)
	if err != nil {
		return nil, err
	}
	return func(i int) Iterator { return x.e.traced(m, part(i)) }, nil
}

// Open starts one goroutine per part, and the closer.
func (x *exchangeIter) Open() error {
	x.fan.init(2 * len(x.parts))
	for _, p := range x.parts {
		x.fan.wg.Add(1)
		go x.work(p)
	}
	x.fan.goCloser()
	return nil
}

// work opens p and pulls it dry. A message goes out once it is more than
// half full, not after every NextBatch: under a selective filter that would
// be a channel hop for a handful of rows, while asking for the last few
// slots of a message would run the segment at that width. A panic in the
// segment goes to the consumer as a message of its own (fanIn.pull).
func (x *exchangeIter) work(p Iterator) {
	defer x.fan.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			x.fan.send(rowBatch{panicked: r})
		}
	}()
	if err := p.Open(); err != nil {
		x.fan.send(rowBatch{err: err})
		return
	}
	bs := x.e.exchangeBatch()
	for more := true; more; {
		buf := getRowBuf(bs)
		n := 0
		for more && n <= bs/2 {
			m, err := p.NextBatch(buf[n:])
			if err != nil {
				putRowBuf(buf)
				x.fan.send(rowBatch{err: err})
				return
			}
			n += m
			more = m > 0
		}
		if n == 0 || !x.fan.send(rowBatch{rows: buf[:n]}) {
			putRowBuf(buf)
			return
		}
	}
}

// NextBatch drains the workers' messages; at a worker's panic it closes the
// exchange.
func (x *exchangeIter) NextBatch(dst []expr.Row) (int, error) {
	if x.fan.out == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on an exchange")
	}
	n, err := x.fan.pull(dst)
	if err != nil {
		return 0, err
	}
	if x.fan.panicked != nil {
		return 0, x.Close() // which raises it
	}
	return n, nil
}

// Close joins the workers, then closes their parts from this goroutine. A
// worker's panic — met by NextBatch, or in flight when shutdown drained the
// channel — is raised again here, on the consumer's goroutine, once every
// worker is joined and every part closed: it fails the query's caller, as a
// panic in a serial operator would, not the process.
func (x *exchangeIter) Close() error {
	x.fan.shutdown()
	var err error
	for _, p := range x.parts {
		err = errors.Join(err, p.Close())
	}
	if p := x.fan.panicked; p != nil {
		x.fan.panicked = nil // raised once; Close is safe to call again
		panic(p)
	}
	return err
}

// sharedSource is a segment's input that pages cannot split — an index
// scan, a nested-loop, index-nested-loop or merge join, a chain
// orderedNodes keeps serial: one serial iterator every worker's copy of the
// segment pulls from, a batch at a time, under a mutex. The first Open opens
// it; exhaustion and errors stick, so each worker sees them.
type sharedSource struct {
	mu     sync.Mutex
	in     Iterator
	xchg   *fanIn
	opened bool
	done   bool
	err    error
}

func (s *sharedSource) Open() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.opened {
		s.opened = true
		s.err = s.in.Open()
	}
	return s.err
}

func (s *sharedSource) NextBatch(dst []expr.Row) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.xchg.stopping() {
		return 0, errExchangeStopped
	}
	if s.done || s.err != nil || len(dst) == 0 {
		return 0, s.err
	}
	n, err := s.in.NextBatch(dst)
	if err != nil {
		s.err = err
		return 0, err
	}
	s.done = n == 0
	return n, nil
}

func (s *sharedSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.Close()
}
