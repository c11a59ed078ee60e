package exec

import (
	"fmt"
	"sync/atomic"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
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
//
// The same rule one step down decides what a scan decodes: a record a cheap
// comparison rejects is never a row (recordRuns), nor is one a nested loop's
// memo has already rejected (sweepScans), nor one a merge join's first side
// has no key for (mergeDrains), and a column is decoded by the first operator
// that needs it (thinScans).
func Build(e *Env, n plan.Node) (Iterator, error) {
	e.ordered = nil
	if e.workers() > 1 {
		e.ordered = orderedNodes(n)
	}
	e.runs = e.recordRuns(n)
	e.thin = e.thinScans(n)
	e.sweeps = e.sweepScans(n)
	e.merges = e.mergeDrains(n)
	it, err := buildIn(e, n, nil)
	if p, ok := it.(*profIter); ok {
		p.root = true
	}
	return it, err
}

// orderedNodes returns the nodes of root that must be built from serial
// operators, for one of two reasons. A consumer relies on the order they
// deliver — an exchange does not keep its segment's order: the whole plan
// under a Limit root — which rows the limit keeps, and what the ones it
// cuts off would have charged, must not depend on the worker count — and
// the chain under each merge-join side the plan marks as arriving sorted:
// through filters and along the outer side of hash and nested-loop joins
// (which pass the outer's order on), down to the index scan or merge join
// that makes the order. Or they are a nested loop's whole inner subtree,
// rebuilt per outer row: an exchange in it would start its workers per
// outer row, and built serial its scan decodes late for the join
// (thinScans) alike at every worker count.
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
	all := func(n plan.Node) { plan.Walk(n, func(n plan.Node) { set[n] = true }) }
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Limit:
			all(t.Input)
		case *plan.Join:
			switch t.Method {
			case plan.MergeJoin:
				if !t.SortOuter {
					mark(t.Outer)
				}
				if !t.SortInner {
					mark(t.Inner)
				}
			case plan.NestLoop:
				all(t.Inner)
			case plan.HashJoin, plan.IndexNestLoop: // pass on what is asked of their outer
			}
		}
	})
	return set
}

// thinScans derives from the plan alone which heap scans decode late, and
// which columns each must still decode itself. A scan qualifies when, through
// nothing but filters, it feeds an operator that copies out the rows it
// keeps and drops the others having read only a few columns: the probe side
// of a hash join (the join key), the inner of a nested loop with a primary
// (the primary's inner columns), the outer of an index nested loop (the key
// it probes with) and the root filter's copy-out (the chain's own
// predicates). What such a scan decodes is what those filters, and that key,
// read — but for the filters it absorbed (recordRuns): it tests those on the
// record, and a column only they read is never decoded. Every other scan
// decodes whole rows, as its consumer reads or keeps them whole: a root
// scan, the input of a TopK, Limit or sort root, the outer of a nested-loop
// join, a cross product's inner — every pair survives — a hash join's build
// side — its table may be shared by an exchange's probes, which must find
// rows nobody still writes — and both sides of a merge join, which completes
// its survivors long after the scan, in key order, when neither the row nor
// its record is in any cache: late decoding measured slower there than
// decoding at the scan (DESIGN.md §12).
func (e *Env) thinScans(root plan.Node) map[*plan.SeqScan]*thinScan {
	var out map[*plan.SeqScan]*thinScan
	// feed registers the scan under the filter chain at n for consumer by,
	// which drops rows on keys (positions in n's columns, which a filter chain
	// passes on as the scan's).
	feed := func(by, n plan.Node, keys ...int) {
		scan, _ := plan.Base(n).(*plan.SeqScan)
		if scan == nil {
			return
		}
		tab, err := e.Cat.Table(scan.Table)
		if err != nil || tab.Heap == nil || tab.Codec == nil || len(scan.ColRefs) != len(tab.Columns) {
			return // newSeqScan reports it
		}
		// A thin row is good until its scan's next NextBatch, so every batch
		// must reach the consumer directly: no exchange, which gathers several
		// into a message, and no shared source, which hands the next to
		// another worker, may come between the two. Either the consumer and
		// the whole chain run in one segment, or none of them heads one.
		seg := e.segment(by)
		if e.segment(scan) != seg {
			return
		}
		var buf [4]query.ColRef
		for f, ok := n.(*plan.Filter); ok; f, ok = f.Input.(*plan.Filter) {
			if e.runs[f] != nil {
				continue // the scan tests it on the record
			}
			refs := f.Pred.Cols(buf[:0])
			if len(refs) == 0 || e.segment(f) != seg {
				return // a predicate of no known columns may read any
			}
			for _, ref := range refs {
				keys = append(keys, plan.ColIndex(scan, ref))
			}
		}
		needed := make([]bool, len(scan.ColRefs))
		for _, k := range keys {
			if k < 0 || k >= len(needed) {
				return // compilePred reports it
			}
			needed[k] = true
		}
		t := &thinScan{codec: tab.Codec, mark: -1}
		for k, on := range needed {
			if on {
				t.need = append(t.need, k)
			}
		}
		if len(t.need) == 0 {
			return
		}
		// The mark is the column left out that lies nearest the first one
		// decoded, after it if possible: mostly the same cache line.
		for k := len(needed) - 1; k >= 0; k-- {
			if !needed[k] && (t.mark < 0 || k > t.need[0]) {
				t.mark = k
			}
		}
		if t.mark < 0 {
			return
		}
		parts := 1
		if seg {
			parts = e.workers() // the exchange runs a part of the scan per worker
		}
		t.pages = make([][]byte, parts)
		if out == nil {
			out = map[*plan.SeqScan]*thinScan{}
		}
		out[scan] = t
	}
	if f, ok := root.(*plan.Filter); ok {
		feed(f, f)
	}
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok {
			return
		}
		switch j.Method {
		case plan.HashJoin:
			if oi, _, err := joinKeyIdx(j.Primary, j.Outer, j.Inner); err == nil { // else the join's constructor reports it
				feed(j, j.Outer, oi)
			}
		case plan.NestLoop:
			if j.Primary == nil {
				return
			}
			var buf [4]query.ColRef
			var keys []int
			for _, ref := range j.Primary.Cols(buf[:0]) {
				if k := plan.ColIndex(j.Inner, ref); k >= 0 {
					keys = append(keys, k)
				}
			}
			feed(j, j.Inner, keys...)
		case plan.IndexNestLoop:
			if table, _, ok := plan.BaseTable(j.Inner); ok {
				if oi, err := indexNLOuterKey(j, table); err == nil { // else the join's constructor reports it
					feed(j, j.Outer, oi)
				}
			}
		case plan.MergeJoin: // its inputs decode whole
		}
	})
	return out
}

// sweepScans derives from the plan alone which nested loops hand their sweep
// memo to their inner scan (sweepMemo.rejects): those with a primary whose
// inner is one heap scan, bare or under filters it absorbed (recordRuns),
// heading no segment — the scan is then the operator the loop's inner rows
// come from, and the loop builds it itself (nlJoinIter.buildInner). Any
// operator between the two — a filter of its own, an index scan, an exchange
// — would see records the memo dropped, so such a loop keeps the memo to its
// own pairs.
func (e *Env) sweepScans(root plan.Node) map[*plan.Join]*plan.SeqScan {
	var out map[*plan.Join]*plan.SeqScan
	plan.Walk(root, func(n plan.Node) {
		j, ok := n.(*plan.Join)
		if !ok || j.Method != plan.NestLoop || j.Primary == nil {
			return
		}
		inner := j.Inner
		if r := e.runs[inner]; r != nil && r.top() == inner {
			inner = r.scan
		}
		if scan, ok := inner.(*plan.SeqScan); ok && !e.segment(scan) {
			if out == nil {
				out = map[*plan.Join]*plan.SeqScan{}
			}
			out[j] = scan
		}
	})
	return out
}

// mergeDrain is how a merge join drains its sides (DESIGN.md §12): which one
// first, and whether the second's heap scan drops, on the encoded record,
// every record whose key the first side lacks — a record that can join
// nothing never becomes a row.
type mergeDrain struct {
	// innerFirst: the inner side drains first and the outer second.
	innerFirst bool
	// scan is the second side's heap scan, bare or under filters it absorbed
	// (recordRuns), or nil when that side is anything else; field is the
	// join key in its records, an int column.
	scan  *plan.SeqScan
	field catalog.IntField
	// keys is the first side's set of keys while the second drains, set by
	// the join, nil otherwise; the scan reads it at Open, so exchange parts
	// share it. dropped counts the records the scan's instances dropped this
	// query, each part adding its own.
	keys    *keySet
	dropped atomic.Int64
}

// mergeDrains derives from the plan alone how each merge join drains its
// sides, keyed by the join and by the scan that drops. The outer drains
// first, and the inner's scan drops — unless both sides are such scans, the
// inner's estimate is the smaller and nothing else in the statement reads
// either table: then the inner drains first and the outer's scan drops, so
// the larger side is the one the smaller's keys thin out. Nothing else
// reading means no other scan of the table, no transfer prepass (which reads
// every table first), no subquery predicate (which reads tables as it
// evaluates), and no nested loop rebuilding the join (its next build reads
// both tables again). Then every page of the two scans is a miss in the
// query's private pool in either order, because no other access touches it,
// and what either order evicts of other tables' pages is the same count of
// least recently used frames: the charged I/O cannot change.
func (e *Env) mergeDrains(root plan.Node) map[plan.Node]*mergeDrain {
	var merges []*plan.Join
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Method == plan.MergeJoin {
			merges = append(merges, j)
		}
	})
	if merges == nil {
		return nil
	}
	reads := map[string]int{}
	rebuilt := map[plan.Node]bool{}
	subquery := false
	readsIO := func(p *query.Predicate) {
		if p != nil && p.Func != nil && p.Func.EvalIO != nil {
			subquery = true
		}
	}
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.SeqScan:
			reads[t.Table]++
		case *plan.IndexScan:
			reads[t.Table]++
			readsIO(t.Matched)
		case *plan.Filter:
			readsIO(t.Pred)
		case *plan.Join:
			readsIO(t.Primary)
			if t.Method == plan.NestLoop {
				plan.Walk(t.Inner, func(n plan.Node) { rebuilt[n] = true })
			}
		}
	})
	var out map[plan.Node]*mergeDrain
	for _, j := range merges {
		oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
		if err != nil {
			continue // the join's constructor reports it
		}
		d := &mergeDrain{}
		d.scan, d.field = e.keyScan(j.Inner, ii)
		outer, field := e.keyScan(j.Outer, oi)
		if d.scan != nil && outer != nil && j.Inner.Card() < j.Outer.Card() && !e.Transfer && !subquery &&
			!rebuilt[j] && reads[d.scan.Table] == 1 && reads[outer.Table] == 1 {
			d.innerFirst, d.scan, d.field = true, outer, field
		}
		if d.scan == nil {
			continue
		}
		if out == nil {
			out = map[plan.Node]*mergeDrain{}
		}
		out[j], out[d.scan] = d, d
	}
	return out
}

// keyScan returns the heap scan side n is — bare, or topping the run of
// filters it absorbed — and the IntField of its column idx, when that column
// is an int column; nil otherwise.
func (e *Env) keyScan(n plan.Node, idx int) (*plan.SeqScan, catalog.IntField) {
	if r := e.runs[n]; r != nil && r.top() == n {
		n = r.scan
	}
	scan, ok := n.(*plan.SeqScan)
	if !ok {
		return nil, catalog.IntField{}
	}
	tab, err := e.Cat.Table(scan.Table)
	if err != nil || tab.Codec == nil || len(scan.ColRefs) != len(tab.Columns) ||
		idx < 0 || idx >= len(tab.Columns) || tab.Columns[idx].Type != expr.TInt {
		return nil, catalog.IntField{}
	}
	field, ok := tab.Codec.IntField(idx)
	if !ok {
		return nil, catalog.IntField{}
	}
	return scan, field
}

// finisherFor returns what completes the rows input n delivers: the
// thinScan of the heap scan under n's filter chain, if Build found one.
func (e *Env) finisherFor(n plan.Node) finisher {
	scan, _ := plan.Base(n).(*plan.SeqScan)
	return finisher{t: e.thin[scan]}
}

// recordRun is the bottom run of cheap comparisons directly over a scan —
// `column op constant`, cost 0, each in the scan's segment — which Build
// compiles into the scan as record tests instead of giving the filters
// operators (DESIGN.md §12: a record a cheap comparison rejects is never a
// row). The scan tests each record, after its transfer probes and before it
// carves or decodes anything, and keeps what the filters' operators counted:
// rows[k] is the actual= counter of level k — the scan's own rows (level 0),
// then what filters[k-1] keeps; the top filter's rows are the scan's output,
// counted by the wrapper buildIn puts round it. prof[k], under Profile, takes
// tests[k]'s evaluations.
type recordRun struct {
	scan    plan.Node      // a *plan.SeqScan or *plan.IndexScan
	filters []*plan.Filter // bottom first; filters[k] is tests[k]
	tests   []catalog.ColTest
	rows    []*atomic.Int64 // nil unless profiling
	prof    []*opCounters   // nil unless profiling
}

// top is the run's highest filter, whose rows the scan emits.
func (r *recordRun) top() *plan.Filter { return r.filters[len(r.filters)-1] }

// recordRuns derives from the plan alone which filters the scans absorb:
// over each heap or index scan, the bottom run of cheap comparisons of one of
// its columns with a constant, in the scan's segment (Env.segment agrees on
// them, so no exchange comes between). A run is keyed by its scan and by each
// of its filters. An index nested loop's inner chain gets none: the join
// probes it, and evaluates its filters itself.
func (e *Env) recordRuns(root plan.Node) map[plan.Node]*recordRun {
	var out map[plan.Node]*recordRun
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch t := n.(type) {
		case *plan.Join:
			if t.Method == plan.IndexNestLoop {
				walk(t.Outer)
				return
			}
		case *plan.Filter:
			chain, base := []*plan.Filter{t}, t.Input
			for f, ok := base.(*plan.Filter); ok; f, ok = base.(*plan.Filter) {
				chain, base = append(chain, f), f.Input
			}
			if r := e.recordRun(base, chain); r != nil {
				if out == nil {
					out = map[plan.Node]*recordRun{}
				}
				out[base] = r
				for _, f := range r.filters {
					out[f] = r
				}
			}
			walk(base)
			return
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

// recordRun compiles the run the scan under chain (top filter first)
// absorbs, nil when it absorbs none.
func (e *Env) recordRun(scan plan.Node, chain []*plan.Filter) *recordRun {
	var table string
	switch s := scan.(type) {
	case *plan.SeqScan:
		table = s.Table
	case *plan.IndexScan:
		table = s.Table
	default:
		return nil
	}
	tab, err := e.Cat.Table(table)
	if err != nil || tab.Codec == nil || len(scan.Cols()) != len(tab.Columns) {
		return nil // the scan's constructor reports it
	}
	r := &recordRun{scan: scan}
	for i := len(chain) - 1; i >= 0; i-- {
		f := chain[i]
		p := f.Pred
		if p.Kind != query.KindSelCmp || p.IsExpensive() || e.segment(f) != e.segment(scan) {
			break
		}
		col := plan.ColIndex(scan, p.Left)
		if col < 0 {
			break // compilePred reports it
		}
		r.filters = append(r.filters, f)
		r.tests = append(r.tests, catalog.ColTest{Col: col, Op: p.Op, Val: p.Value})
	}
	if len(r.filters) == 0 {
		return nil
	}
	if e.prof != nil {
		r.rows = []*atomic.Int64{&e.nodeProf(scan).rows}
		for _, f := range r.filters[:len(r.filters)-1] {
			r.rows = append(r.rows, &e.nodeProf(f).rows)
		}
		for _, f := range r.filters {
			r.prof = append(r.prof, e.nodeProf(f))
		}
	}
	return r
}

// recordTests is one scan instance's use of its recordRun (an exchange part,
// a nested loop's rescan each have their own): what reached each level since
// Open, n[0] the scan's rows and n[k+1] what tests[k] kept, and what of that
// the counters already have. A scan without a run has none to use.
type recordTests struct {
	run     *recordRun
	n, sent []int
}

// open zeroes the tallies, allocating them on a first open only (a nested
// loop reopens its inner scan once per outer block).
func (rt *recordTests) open() {
	if rt.run == nil {
		return
	}
	if rt.n == nil {
		levels := len(rt.run.tests) + 1
		buf := make([]int, 2*levels)
		rt.n, rt.sent = buf[:levels], buf[levels:]
		return
	}
	clear(rt.n)
	clear(rt.sent)
}

// pass reports whether rec survives every test, in order: the filters'
// verdicts, with each filter's abort check every budgetEvery evaluations.
func (rt *recordTests) pass(e *Env, codec *catalog.RowCodec, rec []byte) (bool, error) {
	rt.n[0]++
	for k, t := range rt.run.tests {
		if rt.n[k]%budgetEvery == 0 {
			if err := e.checkAbort(); err != nil {
				return false, err
			}
		}
		if ok, err := codec.Test(rec, t); !ok || err != nil {
			return false, err
		}
		rt.n[k+1]++
	}
	return true, nil
}

// flush adds what reached each level since the last flush to the run's
// counters: once per NextBatch, not once per record.
func (rt *recordTests) flush() {
	for k, v := range rt.n {
		d := int64(v - rt.sent[k])
		if d == 0 {
			continue
		}
		rt.sent[k] = v
		if k < len(rt.run.rows) {
			rt.run.rows[k].Add(d)
		}
		if k < len(rt.run.prof) {
			rt.run.prof[k].predEvals.Add(d)
		}
	}
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

// traced wraps n's operator in its profiler when profiling is on.
func (e *Env) traced(n plan.Node, it Iterator) Iterator {
	if e.prof != nil {
		return &profIter{e: e, in: it, c: e.nodeProf(n)}
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
		if r := e.runs[t]; r != nil { // t tops a run: its scan makes t's rows
			return build(e, r.scan, rs)
		}
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
// join-key columns) before any decode into a row, so pruned rows cost one
// partial decode and a probe — never a row allocation; the filters the scan
// absorbed (recordRun) test the record next, at no higher price. A scan
// Build marked thin decodes only the columns its rows' fate depends on
// (thinScan); its consumer takes in each batch before asking for the next,
// so the rows of a batch — like the page they lie on — are good only until
// the next call, which the operators Build allows between the two (filters)
// never outlast.
type seqScanIter struct {
	e   *Env
	tab *catalog.Table
	// The scan is part `part` of `parts` (0 of 1 when serial); xchg is the
	// exchange whose shutdown it watches for, nil outside one.
	part, parts int
	xchg        *fanIn
	it          *storage.HeapIter
	// The page being walked: pg pinned, its bytes in src, and the next slot.
	pg           *storage.Page
	src          []byte
	slot, nslots int
	count        int
	alloc        rowAlloc
	// cols is what the scan decodes: every column, or a thin scan's need.
	cols []int
	thin *thinScan
	// ring is the one slab a thin scan carves every batch from: by the next
	// call its rows are dead, emitted or dropped.
	ring   []expr.Value
	memo   catalog.DecodeMemo
	probes []tableProbe
	rt     recordTests
	// sweep is the memo of the nested loop whose bare inner this scan is
	// (Env.sweeps), or nil: a record it rejects is dropped, not carved.
	sweep *sweepMemo
	// merge is the drain of the merge join whose second side this scan is
	// (Env.merges), or nil; keys, from Open on, is its first side's keys, or
	// nil: a record whose key is NULL or not in it is dropped, not carved,
	// and counted in dropped until the batch ends.
	merge   *mergeDrain
	keys    *keySet
	dropped int
	tc      *opCounters
}

func newSeqScan(e *Env, s *plan.SeqScan, rs *slabPool) (*seqScanIter, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tab.Heap == nil || tab.Codec == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", s.Table)
	}
	it := &seqScanIter{e: e, tab: tab, parts: 1, alloc: rowAlloc{pool: rs}, rt: recordTests{run: e.runs[s]}, merge: e.merges[s]}
	if rs != nil { // a thin scan's ring is a slab of the rows' pool
		it.thin = e.thin[s]
	}
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
	s.pg, s.slot, s.nslots, s.ring = nil, 0, 0, nil
	s.cols = s.tab.Codec.AllCols()
	if s.thin != nil {
		s.cols = s.thin.need
	}
	s.probes = s.e.transferProbes(s.tab.Name)
	s.rt.open()
	if s.merge != nil {
		s.keys = s.merge.keys
	}
	return nil
}

// NextBatch walks the pinned page's slots (one storage call per page, no
// per-record copy) and decodes the records it keeps straight into
// slab-carved rows, checking the budget — and for its exchange's shutdown —
// every 1024 records scanned. It is one loop parameterised by the column
// set: every column, or under thin the needed ones, with the row's place on
// its page left in the mark slot for whoever keeps the row.
func (s *seqScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.it == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on SeqScan(%s)", s.tab.Name)
	}
	if s.rt.run != nil {
		defer s.rt.flush()
	}
	if s.keys != nil {
		defer s.flushDropped()
	}
	codec, width := s.tab.Codec, len(s.tab.Columns)
	if s.thin != nil && width <= slabValues {
		if s.ring == nil {
			s.ring, s.alloc.slab = s.alloc.pool.get(), nil
		}
		if poisonSlabs {
			// Only what the last batch carved (all of a new ring) died: a
			// nested loop's inner, rescanned per outer row and pulled a row at
			// a time, would otherwise poison a whole slab per row.
			for i := range s.ring[:len(s.ring)-len(s.alloc.slab)] {
				s.ring[i] = poisonValue
			}
		}
		s.alloc.slab = s.ring
		dst = dst[:min(len(dst), len(s.ring)/width)]
	}
	n := 0
	for n < len(dst) {
		if s.slot >= s.nslots {
			if s.thin != nil && s.pg != nil {
				if n > 0 {
					break // these rows are emitted from the page: it stays pinned until they are
				}
				if poisonSlabs {
					s.thin.pages[s.part] = nil
				}
			}
			pg, _, ok, err := s.it.NextPage()
			if err != nil {
				return 0, err
			}
			if !ok {
				s.pg, s.slot, s.nslots = nil, 0, 0
				break
			}
			s.pg, s.src, s.slot, s.nslots = pg, pg.Data(), 0, pg.NumSlots()
			if s.thin != nil {
				s.thin.pages[s.part] = s.src
			}
			continue
		}
		off, length, live := s.pg.Extent(storage.SlotID(s.slot))
		s.slot++
		if !live {
			continue
		}
		rec := s.src[off : off+length]
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
			keep, err := s.e.probeRecord(codec, rec, s.probes, s.tc)
			if err != nil {
				return 0, err
			}
			if !keep {
				continue
			}
		}
		if s.rt.run != nil {
			keep, err := s.rt.pass(s.e, codec, rec)
			if err != nil {
				return 0, err
			}
			if !keep {
				continue
			}
		}
		if s.sweep != nil && s.sweep.rejects(rec) {
			continue
		}
		if s.keys != nil {
			if k, null, ok := s.merge.field.Read(rec); ok && (null || !s.keys.has(k)) {
				s.dropped++
				continue
			}
		}
		row := s.alloc.next(width)
		if s.thin != nil {
			if poisonSlabs {
				for c := range row {
					row[c] = poisonValue
				}
			}
			row[s.thin.mark] = expr.Value{Kind: thinKind, I: int64(s.part)<<16 | int64(off)}
		}
		if err := codec.DecodeCols(rec, row, s.cols, &s.memo); err != nil {
			return 0, err
		}
		dst[n] = row
		n++
	}
	return n, nil
}

// flushDropped adds the records dropped since the last flush to the merge
// join's count: once per NextBatch, not once per record.
func (s *seqScanIter) flushDropped() {
	if s.dropped > 0 {
		s.merge.dropped.Add(int64(s.dropped))
		s.dropped = 0
	}
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
	row    expr.Row // the fetch's row, carved only for a record take keeps
	memo   catalog.DecodeMemo
	probes []tableProbe
	rt     recordTests
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
	it := &indexScanIter{e: e, node: s, tab: tab, alloc: rowAlloc{pool: rs}, rt: recordTests{run: e.runs[s]}}
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
	s.rt.open()
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

// NextBatch fetches matching heap tuples and looks at each record in place
// under its page pin (HeapFile.View, take): a fetch its received filters or
// its record tests reject carves no row, and one they keep is decoded
// straight into a slab-carved row.
func (s *indexScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.rt.run != nil {
		defer s.rt.flush()
	}
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
		if err := s.heap.View(tid, s.take); err != nil {
			return 0, err
		}
		if s.row == nil {
			continue
		}
		dst[n], s.row = s.row, nil
		n++
	}
	return n, nil
}

// take probes rec with the received filters, then runs the record tests, and
// decodes a record both keep into s.row.
func (s *indexScanIter) take(rec []byte) error {
	codec := s.tab.Codec
	if len(s.probes) > 0 {
		if keep, err := s.e.probeRecord(codec, rec, s.probes, s.tc); !keep || err != nil {
			return err
		}
	}
	if s.rt.run != nil {
		if keep, err := s.rt.pass(s.e, codec, rec); !keep || err != nil {
			return err
		}
	}
	row := s.alloc.next(len(s.tab.Columns))
	if err := codec.DecodeIntoMemo(rec, row, &s.memo); err != nil {
		return err
	}
	s.row = row
	return nil
}

func (s *indexScanIter) Close() error {
	s.tids = nil
	s.rng = nil
	s.pos = 0
	s.row = nil
	return nil
}

// compileFilter is the Filter build rule, for build and the exchange alike:
// f's operator but for its input, which carves from e.below(rs). The
// predicate is resolved against the input's columns; with profiling on it
// counts into f's node. A filter making result rows (rs == nil) is the last
// operator that can drop them, so it reads the query's pool and copies out
// what it keeps — decoding first what a thin scan under the chain left out —
// so a chain of filters copies once, at its top.
func compileFilter(e *Env, f *plan.Filter, rs *slabPool) (filterIter, error) {
	cp, err := compilePred(e, f.Pred, f.Input.Cols())
	if err != nil {
		return filterIter{}, err
	}
	if e.prof != nil {
		cp.prof = e.nodeProf(f)
	}
	fi := filterIter{e: e, pred: cp, copies: rs == nil}
	if fi.copies {
		fi.fin = e.finisherFor(f)
	}
	return fi, nil
}

// filterIter applies one predicate, dropping rows that fail it.
type filterIter struct {
	e     *Env
	in    Iterator
	pred  *compiledPred
	count int
	// copies: the input's rows are the query's; the kept ones go to out,
	// through fin: decoded there if a thin scan made them.
	copies bool
	out    rowAlloc
	fin    finisher
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
		if err := f.pred.holdsBatch(f.e, nil, f.buf[:m], f.keep[:m], &f.count, &f.sc); err != nil {
			return 0, err
		}
		n := 0
		for i := 0; i < m; i++ {
			if f.keep[i] {
				dst[n] = f.buf[i]
				if f.copies {
					dst[n] = f.out.next(len(f.buf[i]))
					if err := f.fin.emit(dst[n], f.buf[i]); err != nil {
						return 0, err
					}
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
