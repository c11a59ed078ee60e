package exec

import (
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/storage"
)

// sweepTape is a nested loop's inner read once (DESIGN.md §12). The loop's
// first sweep reads its heap scan as any sweep would and keeps what the scan
// met: the rows it kept, decoded whole in slabs of the loop's own pool, each
// row's inner value as the loop's memo numbers it, the rows kept through
// each page's end, and the scan's gate tallies at each kept row and at each
// page's end. Every later sweep is walked by the join (nlJoinIter.walk),
// which takes the same pages through the scan's iterator around the same
// rows — so the query's I/O tracker sees the fetches and unpins a rescan
// makes and charges the same reads — and hands the scan's gates the tallies
// the records would have given, without reading a record. Nothing of it
// depends on the outer row, so it holds for every sweep. It lives until the
// loop closes.
type sweepTape struct {
	// scan is the inner scan that recorded the tape: the walk takes the pages
	// through its iterator and hands its gates the tallies.
	scan *seqScanIter
	rows []expr.Row // from a pooled buffer (getRowBuf), given back at release
	nums []int32    // each row's inner-value number; nil without a memo
	ends []int32    // per page, in scan order, the rows kept through its end
	// rowTally and pageTally hold the scan's tallies since the sweep opened
	// (gateRun.got) at each kept row and at each page's end, one per gate.
	rowTally, pageTally []gateTally
	// The walk's place: the pages fetched and the rows handed on.
	page, row int
}

// keep appends a row the first sweep kept, growing the row buffer through
// the pool, with the gates' tallies so far.
func (t *sweepTape) keep(row expr.Row, g *gateRun) {
	if len(t.rows) == cap(t.rows) {
		grown := getRowBuf(max(2*len(t.rows), DefaultBatchSize))[:len(t.rows)]
		copy(grown, t.rows)
		putRowBuf(t.rows)
		t.rows = grown
	}
	t.rows = append(t.rows, row)
	t.rowTally = append(t.rowTally, g.got...)
}

// endPage marks the end of the page the first sweep has walked.
func (t *sweepTape) endPage(g *gateRun) {
	t.ends = append(t.ends, int32(len(t.rows)))
	t.pageTally = append(t.pageTally, g.got...)
}

// release gives the row buffer back.
func (t *sweepTape) release() {
	putRowBuf(t.rows)
	t.rows = nil
}

// walk is NextBatch over a later sweep of the taped inner, filling dst from
// out. It is the scan's loop over the tape, joined: it takes the pages
// through the scan's iterator where the scan would — the next page when the
// current one has no kept row left and pairs are still owed — and hands the
// rows to the primary in runs no longer than the pairs still owed, so it
// decides the rows a rescan decides and reads between the same calls. It
// checks the budget at each page and every 64 pairs, and hands the scan's
// gates the first sweep's tallies at each page's end and where it stops. It
// reports whether the sweep goes on.
func (n *nlJoinIter) walk(dst []expr.Row, out int) (int, bool, error) {
	t := n.tape
	s := t.scan
	for out < len(dst) {
		if t.page == 0 || t.row == int(t.ends[t.page-1]) {
			if t.page > 0 {
				s.gates.flushAt(n.e, t.pageTally, t.page-1)
			}
			ok, err := n.nextPage()
			if err != nil {
				return 0, false, err
			}
			if !ok {
				return out, false, nil
			}
			t.page++
			if err := n.e.checkAbort(); err != nil {
				return 0, false, err
			}
			continue
		}
		end := min(int(t.ends[t.page-1]), t.row+len(dst)-out)
		rows := t.rows[t.row:end]
		if n.innerProf != nil {
			n.innerProf.rows.Add(int64(len(rows)))
		}
		if err := n.count64(len(rows)); err != nil {
			return 0, false, err
		}
		var nums []int32
		if n.memo != nil {
			nums = t.nums[t.row:end]
		}
		var err error
		if out, err = n.join(dst, out, rows, nums); err != nil {
			return 0, false, err
		}
		t.row = end
	}
	s.gates.flushAt(n.e, t.rowTally, t.row-1)
	return out, true, nil
}

// nextPage is the scan's next page for the walk, its reads attributed to the
// inner under Profile.
func (n *nlJoinIter) nextPage() (bool, error) {
	var io0 storage.IOStats
	if n.innerProf != nil {
		io0 = n.e.ioStats()
	}
	_, _, ok, err := n.tape.scan.it.NextPage()
	if n.innerProf != nil {
		n.innerProf.addIO(n.e.ioStats().Sub(io0))
	}
	return ok, err
}

// loopPlan is what Build plans for a nested loop (planLoops).
type loopPlan struct {
	// memo answers its cached primary's repeated bindings; nil when the
	// primary keeps the per-row protocol.
	memo *sweepMemo
	// tape is the heap scan the loop reads once and walks (sweepTape); nil
	// when the inner is rebuilt and read again every sweep.
	tape *plan.SeqScan
}

// planLoops derives from the plan alone, for each nested loop, its memo and
// whether it tapes its inner: it does when the inner is a bare heap scan, or
// one under the filters it absorbed (sideScan), and the primary reads no
// table, however few sweeps the plan expects (DESIGN.md §12 has what taping
// costs a loop of one to three). A primary that reads tables (a subquery
// predicate) reads them between the inner's batches, and a rescanned inner
// decodes late (thinScans) and so ends its batches at its pages' ends, where
// the taping sweep decodes whole rows, so its batches span pages: such a
// loop keeps the rescan, whose reads interleave with the primary's as they
// always have (taped, TestNLReplayMatchesRescan's subquery loop charges a
// read more over a 6-page pool). The memo is built once per query and kept
// through the rebuilds of a loop nested in another's inner (rebuilt per
// outer row, never live twice): its verdicts hold for the whole query. No
// inner is under an exchange: at Parallelism > 1 orderedNodes builds every
// nested loop's whole inner serial.
func (e *Env) planLoops(root plan.Node) map[*plan.Join]loopPlan {
	var out map[*plan.Join]loopPlan
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok || j.Method != plan.NestLoop {
			return
		}
		var lp loopPlan
		if p := j.Primary; p == nil || p.Func == nil || p.Func.EvalIO == nil {
			if scan := e.sideScan(j.Inner); scan != nil {
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
