package exec

import (
	"predplace/internal/expr"
	"predplace/internal/plan"
)

// sweepTape is a nested loop's inner read once (DESIGN.md §12). The loop's
// first sweep reads its heap scan as any sweep would and keeps what the scan
// met: the rows it kept, decoded whole in slabs of the loop's own pool, the
// live records on each page, and each record's outcomes at the scan's gates.
// Every later sweep replays the tape (seqScanIter.replay): the scan pins and
// unpins the same pages in the same order around the same rows — so the
// query's I/O tracker sees the fetches and unpins a rescan makes and charges
// the same reads — and hands each gate the tallies the records would have
// given, without reading a record. Nothing of it depends on the outer row, so
// it holds for every sweep. It lives until the loop closes.
type sweepTape struct {
	rows  []expr.Row // from a pooled buffer (getRowBuf), given back at release
	pages []int32    // the live records on each page, in scan order
	codes []byte     // each live record's outcome at every gate it reached
	done  bool       // the first sweep read the scan to its end
	// replaying: the running sweep replays the tape (every sweep after a
	// done first one).
	replaying bool
	// The replay's place: pages passed, records and rows handed on, codes
	// read, and the records up to the current page's end.
	page, rec, row, code, end int
}

// keep appends a row the first sweep kept, growing the row buffer through
// the pool.
func (t *sweepTape) keep(row expr.Row) {
	if len(t.rows) == cap(t.rows) {
		grown := getRowBuf(max(2*len(t.rows), DefaultBatchSize))[:len(t.rows)]
		copy(grown, t.rows)
		putRowBuf(t.rows)
		t.rows = grown
	}
	t.rows = append(t.rows, row)
}

// rewind readies the tape for a sweep: a replay from the start once the
// first sweep is done, else a recording from scratch.
func (t *sweepTape) rewind() {
	t.page, t.rec, t.row, t.code, t.end = 0, 0, 0, 0, 0
	t.replaying = t.done
	if !t.done {
		t.rows, t.pages, t.codes = t.rows[:0], t.pages[:0], t.codes[:0]
	}
}

// release gives the row buffer back.
func (t *sweepTape) release() {
	putRowBuf(t.rows)
	t.rows = nil
}

// replay is NextBatch over the tape: the scan's own loop with every record
// read back instead of walked. It takes the pages through the scan's
// iterator exactly where the scan would — the next page when the current one
// has no live record left and the batch is not full — checks the budget
// every 1024 records as the scan does, and replays each record's gate
// outcomes into the scan's tallies, flushed once per batch.
func (s *seqScanIter) replay(dst []expr.Row) (int, error) {
	t := s.tape
	defer s.gates.flush(s.e)
	n := 0
	for n < len(dst) {
		if t.rec == t.end {
			_, _, ok, err := s.it.NextPage()
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			t.end += int(t.pages[t.page])
			t.page++
			continue
		}
		t.rec++
		s.count++
		if s.count%1024 == 0 {
			if err := s.e.checkAbort(); err != nil {
				return 0, err
			}
		}
		if len(s.gates.list) > 0 && !s.gates.replay(t.codes, &t.code) {
			continue
		}
		dst[n] = t.rows[t.row]
		t.row++
		n++
	}
	return n, nil
}

// loopPlan is what Build plans for a nested loop (planLoops).
type loopPlan struct {
	// memo answers its cached primary's repeat bindings within a sweep; nil
	// when the primary keeps the per-row protocol.
	memo *sweepMemo
	// tape is the heap scan the loop reads once and replays (sweepTape); nil
	// when the inner is rebuilt and read again every sweep.
	tape *plan.SeqScan
}

// planLoops derives from the plan alone, for each nested loop, its sweep
// memo and whether it replays its inner: it does when the inner is a bare
// heap scan, or one under the filters it absorbed (sideScan), the primary
// reads no table, and the plan expects enough sweeps (fewSweeps). A primary that reads tables (a subquery predicate)
// reads them between the inner's batches, and a rescanned inner decodes late
// (thinScans) and so ends its batches at its pages' ends: such a loop keeps
// the rescan, whose reads interleave with the primary's as they always have.
// The memo is built once per query, for a loop nested in another's inner is
// rebuilt per outer row but never live twice.
func (e *Env) planLoops(root plan.Node) map[*plan.Join]loopPlan {
	var out map[*plan.Join]loopPlan
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok || j.Method != plan.NestLoop {
			return
		}
		var lp loopPlan
		if p := j.Primary; (p == nil || p.Func == nil || p.Func.EvalIO == nil) && !fewSweeps(j) {
			if scan := e.sideScan(j.Inner); scan != nil && !e.segment(scan) {
				lp.tape = scan
			}
		}
		lp.memo = newSweepMemo(e, j)
		if lp == (loopPlan{}) {
			return
		}
		if out == nil {
			out = map[*plan.Join]loopPlan{}
		}
		out[j] = lp
	})
	return out
}

// tapeMinSweeps is the fewest outer rows the plan must estimate for a loop
// to tape its inner. The tape's first sweep decodes whole what a rescanned
// inner decodes late, and each replay saves only part of a rescan's cost,
// so a few sweeps do not pay the first back: against the rescan, a loop over
// a 1 400-row inner under a cached primary ran 15–40 % slower taped at 2 to
// 4 outer rows and broke even at 8 to 16; at 120 it ran 7–13 % faster.
const tapeMinSweeps = 16

// fewSweeps reports whether the plan estimates fewer than tapeMinSweeps
// outer rows for loop j. A plan built without estimates (EstCard 0) is
// taken to sweep more.
func fewSweeps(j *plan.Join) bool {
	c := j.Outer.Card()
	return c > 0 && c < tapeMinSweeps
}
