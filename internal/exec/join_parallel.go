package exec

import (
	"errors"
	"fmt"
	"sync"

	"predplace/internal/expr"
	"predplace/internal/plan"
)

// parallelHashJoinIter is the partitioned parallel hash join: the inner
// input is hash-partitioned by join key across W builder goroutines, each
// owning a private joinTable, so the build runs without shared-table locking;
// then W probe workers stream batches of outer rows, each probing whichever
// partition a row's key hashes to (partition tables are read-only by then).
// Spill accounting mirrors the serial hash join exactly: one per-tuple
// charge for every inner and every outer row, counted atomically, so the
// charged cost is identical to the serial operator's.
type parallelHashJoinIter struct {
	e      *Env
	node   *plan.Join
	outer  Iterator
	inner  Iterator
	outIdx int
	inIdx  int
	parts  []joinTable
	tasks  chan []expr.Row
	fan    fanIn
	pool   *slabPool // the probe workers' rowAlloc pool (nil: fresh slabs)
}

func newParallelHashJoin(e *Env, j *plan.Join, rs *slabPool) (Iterator, error) {
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
	return &parallelHashJoinIter{e: e, node: j, outer: outer, inner: inner, outIdx: oi, inIdx: ii, pool: rs}, nil
}

func (h *parallelHashJoinIter) Open() error {
	if err := h.inner.Open(); err != nil {
		return err
	}
	w := h.e.workers()
	h.parts = make([]joinTable, w)
	build := make([]chan []expr.Row, w)
	for i := range build {
		h.parts[i].idx = h.inIdx
		h.parts[i].reserve(cardHint(h.node.Inner.Card()) / w)
		build[i] = make(chan []expr.Row, 2)
	}
	var bwg sync.WaitGroup
	for i := 0; i < w; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			for rows := range build[i] {
				for _, row := range rows {
					h.parts[i].add(row)
				}
				putRowBuf(rows)
			}
		}(i)
	}
	berr := h.routeBuild(build, w)
	for i := range build {
		close(build[i])
	}
	bwg.Wait()
	if berr != nil {
		return berr
	}
	if err := h.inner.Close(); err != nil {
		return err
	}
	if err := h.outer.Open(); err != nil {
		return err
	}
	h.fan.init(w)
	h.tasks = make(chan []expr.Row, w)
	h.fan.wg.Add(1)
	go h.routeProbe()
	for i := 0; i < w; i++ {
		h.fan.wg.Add(1)
		go h.probeWorker()
	}
	h.fan.goCloser()
	return nil
}

// routeBuild drains the inner input batch-at-a-time, charging spill per
// tuple (null keys included, matching the serial operator) and routing
// non-null rows to the builder that owns their partition. Per-partition
// pending batches use pooled buffers the builders recycle after insertion.
func (h *parallelHashJoinIter) routeBuild(build []chan []expr.Row, w int) error {
	bs := h.e.exchangeBatch()
	pend := make([][]expr.Row, w)
	for p := range pend {
		pend[p] = getRowBuf(bs)[:0]
	}
	recycle := func() {
		for _, rows := range pend {
			putRowBuf(rows)
		}
	}
	buf := getRowBuf(bs)
	defer putRowBuf(buf)
	count := 0
	for {
		m, err := h.inner.NextBatch(buf)
		if err != nil {
			recycle()
			return err
		}
		if m == 0 {
			break
		}
		for _, row := range buf[:m] {
			h.e.ChargeSpillTuple()
			count++
			if count%1024 == 0 {
				if err := h.e.checkAbort(); err != nil {
					recycle()
					return err
				}
			}
			v := row[h.inIdx]
			if v.IsNull() {
				continue
			}
			p := hashPartition(v, w)
			pend[p] = append(pend[p], row)
			if len(pend[p]) == bs {
				build[p] <- pend[p]
				pend[p] = getRowBuf(bs)[:0]
			}
		}
	}
	for p, rows := range pend {
		if len(rows) > 0 {
			build[p] <- rows
		} else {
			putRowBuf(rows)
		}
	}
	return nil
}

// routeProbe drains the outer input batch-at-a-time, charging spill per
// tuple, and hands pooled batches to the probe workers.
func (h *parallelHashJoinIter) routeProbe() {
	defer h.fan.wg.Done()
	defer close(h.tasks)
	bs := h.e.exchangeBatch()
	count := 0
	for {
		buf := getRowBuf(bs)
		m, err := h.outer.NextBatch(buf)
		if err != nil {
			putRowBuf(buf)
			h.fan.send(rowBatch{err: err})
			return
		}
		if m == 0 {
			putRowBuf(buf)
			return
		}
		for range buf[:m] {
			h.e.ChargeSpillTuple()
			count++
			if count%1024 == 0 {
				if err := h.e.checkAbort(); err != nil {
					putRowBuf(buf)
					h.fan.send(rowBatch{err: err})
					return
				}
			}
		}
		select {
		case h.tasks <- buf[:m]:
		case <-h.fan.stop:
			putRowBuf(buf)
			return
		}
	}
}

// probeWorker probes the read-only partition tables with each outer row in
// its batches; output rows are carved from a per-worker value slab.
func (h *parallelHashJoinIter) probeWorker() {
	defer h.fan.wg.Done()
	w := len(h.parts)
	bs := h.e.exchangeBatch()
	alloc := rowAlloc{pool: h.pool}
	for batch := range h.tasks {
		out := getRowBuf(bs)[:0]
		for _, row := range batch {
			v := row[h.outIdx]
			if v.IsNull() {
				continue
			}
			t := &h.parts[hashPartition(v, w)]
			for i := t.first(v); i >= 0; i = t.next[i] {
				out = append(out, alloc.concat(row, t.rows[i]))
			}
		}
		putRowBuf(batch)
		if len(out) > 0 {
			if !h.fan.send(rowBatch{rows: out}) {
				putRowBuf(out)
				return
			}
		} else {
			putRowBuf(out)
		}
	}
}

// NextBatch drains the probe workers' fan-in.
func (h *parallelHashJoinIter) NextBatch(dst []expr.Row) (int, error) {
	if h.fan.out == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on parallel HashJoin")
	}
	return h.fan.pull(dst)
}

func (h *parallelHashJoinIter) Close() error {
	h.fan.shutdown()
	h.parts = nil
	return errors.Join(h.outer.Close(), h.inner.Close())
}
