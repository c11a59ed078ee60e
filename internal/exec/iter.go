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
// The same rule one step down decides what a scan decodes: a record one of
// the scan's gates drops is never a row (planGates: a transfer probe, a cheap
// comparison the scan absorbed, a merge join's first side), a column is
// decoded by the first operator that needs it (thinScans), and a nested
// loop's bare inner scan is read once and replayed (planLoops, sweepTape).
func Build(e *Env, n plan.Node) (Iterator, error) {
	e.planScans(n)
	return e.buildRoot(n)
}

// planScans is Build's planning step: which nodes stay serial, each scan's
// absorbed filters, decoded columns and gates, and each nested loop's memo
// and replayed inner.
func (e *Env) planScans(n plan.Node) {
	e.ordered = nil
	if e.workers() > 1 {
		e.ordered = orderedNodes(n)
	}
	e.runs = e.recordRuns(n)
	e.loops = e.planLoops(n)
	e.thin = e.thinScans(n)
	e.gates = e.planGates(n)
}

// buildRoot is Build's tail: the iterator tree of root n as planned.
func (e *Env) buildRoot(n plan.Node) (Iterator, error) {
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
// swept per outer row: an exchange in it would start its workers per outer
// row, and built serial its scan is replayed (planLoops) or decodes late for
// the join (thinScans) alike at every worker count.
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
		parts := 1
		if seg {
			parts = e.workers() // the exchange runs a part of the scan per worker
		}
		t := newThinScan(tab.Codec, needed, parts)
		if t == nil {
			return
		}
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
			if j.Primary == nil || e.loops[j].tape != nil { // a taped inner is decoded whole, once
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

// recordGate is one way a scan lets a record go before it is a row
// (DESIGN.md §12): it reads a field of the encoded record, tests it, and
// counts what it drops as the operator that would have dropped the row would
// have. Build plans each scan's gates as one list (planGates); the scan runs
// the list on every record it reads and hands each gate its tallies once per
// batch (gateRun). A gate counts and charges nothing as it admits: all of its
// accounting follows from its tallies, so a nested loop that reads its inner
// once (sweepTape) hands every later sweep's gates the first sweep's.
type recordGate interface {
	// admit returns rec's outcome at the gate.
	admit(e *Env, rec []byte) (outcome, error)
	// flush is the accounting hook: t tallies by outcome the records that
	// reached the gate since the last flush.
	flush(e *Env, t gateTally)
}

// outcome is what a gate made of one record: whether it dropped it
// (outDrop), and a mark of the gate's own (outMark — a probe gate's NULL
// key, which it drops unprobed, or a key it kept that lies outside the
// filter's key set).
type outcome uint8

const (
	outKeep outcome = 0
	outDrop outcome = 1
	outMark outcome = 2
)

// keepIf is the plain outcome of a test: kept or dropped.
func keepIf(ok bool) outcome {
	if ok {
		return outKeep
	}
	return outDrop
}

// gateTally counts records by their outcome at one gate.
type gateTally [4]int

// in is how many records the tally counts.
func (t *gateTally) in() int { return t[0] + t[1] + t[2] + t[3] }

// dropped is how many of them the gate dropped.
func (t *gateTally) dropped() int { return t[outDrop] + t[outDrop|outMark] }

// planGates derives from the plan alone each scan's gates, in the order the
// scan runs them: the Bloom filters it received from the transfer prepass
// (probeGate), the filters it absorbed (testGate, recordRuns), then the gate
// of the merge join its rows feed when that join reads them straight from it
// (sideScan): the join's first-side keys (keyGate). A join's gate is keyed by
// the join too, which finds it there (joinGate).
func (e *Env) planGates(root plan.Node) map[plan.Node][]recordGate {
	var gates map[plan.Node][]recordGate
	add := func(n plan.Node, g recordGate) {
		if gates == nil {
			gates = map[plan.Node][]recordGate{}
		}
		gates[n] = append(gates[n], g)
	}
	var merges []*plan.Join
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.SeqScan, *plan.IndexScan:
			e.scanGates(n, add)
		case *plan.Join:
			if t.Method == plan.MergeJoin {
				merges = append(merges, t)
			}
		}
	})
	e.keyGates(root, merges, add)
	return gates
}

// scanGates adds the gates a heap or index scan has of its own: its transfer
// probes, then its record tests.
func (e *Env) scanGates(scan plan.Node, add func(plan.Node, recordGate)) {
	table, _ := plan.ScanTable(scan)
	if t := e.transfer.table(table); t != nil {
		var tc *opCounters
		if e.prof != nil {
			tc = e.nodeProf(scan)
		}
		for _, s := range t.slots {
			if s.class.filter != nil {
				add(scan, &probeGate{codec: t.tab.Codec, slot: s, filter: s.class.filter, keys: s.class.keys, ts: e.transfer, tc: tc})
			}
		}
	}
	if r := e.runs[scan]; r != nil {
		for _, g := range r.tests {
			add(scan, g)
		}
	}
}

// joinGate returns the gate Build planned for join j, or nil.
func joinGate[G recordGate](e *Env, j *plan.Join) G {
	var g G
	if list := e.gates[j]; len(list) > 0 {
		g, _ = list[0].(G)
	}
	return g
}

// sideScan returns the heap scan that makes a join side n's rows itself: n,
// or the scan under the run of filters n tops (recordRuns). Any other
// operator between the join and the scan — a filter of its own, an index
// scan, a join — would see records the scan dropped, so it returns nil then.
func (e *Env) sideScan(n plan.Node) *plan.SeqScan {
	if r := e.runs[n]; r != nil && r.top() == n {
		n = r.scan
	}
	scan, _ := n.(*plan.SeqScan)
	return scan
}

// keyGates derives from the plan alone how each merge join drains its sides,
// and gives the second side's heap scan the join's keyGate. The outer drains
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
func (e *Env) keyGates(root plan.Node, merges []*plan.Join, add func(plan.Node, recordGate)) {
	if merges == nil {
		return
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
	for _, j := range merges {
		oi, ii, err := joinKeyIdx(j.Primary, j.Outer, j.Inner)
		if err != nil {
			continue // the join's constructor reports it
		}
		g := &keyGate{}
		scan, field := e.keyScan(j.Inner, ii)
		outer, outerField := e.keyScan(j.Outer, oi)
		if scan != nil && outer != nil && j.Inner.Card() < j.Outer.Card() && !e.Transfer && !subquery &&
			!rebuilt[j] && reads[scan.Table] == 1 && reads[outer.Table] == 1 {
			g.innerFirst, scan, field = true, outer, outerField
		}
		if scan == nil {
			continue
		}
		g.field = field
		add(j, g)
		add(scan, g)
	}
}

// keyScan returns the heap scan making side n's rows (sideScan) and the
// IntField of its column idx, when that column is an int column; nil
// otherwise.
func (e *Env) keyScan(n plan.Node, idx int) (*plan.SeqScan, catalog.IntField) {
	scan := e.sideScan(n)
	if scan == nil {
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

// gateRun is one scan instance's use of its gate list (an exchange part and a
// nested loop's rescan each have their own). got tallies, gate by gate, the
// records that reached each since Open, and sent what of that the gates'
// flush hooks already have. A few gates' tallies fit in buf, so a scan
// rebuilt per outer row allocates none.
type gateRun struct {
	list []recordGate
	got  []gateTally
	sent []gateTally
	buf  [8]gateTally
}

// open zeroes the tallies.
func (g *gateRun) open() {
	k := len(g.list)
	if 2*k <= len(g.buf) {
		g.got, g.sent = g.buf[:k], g.buf[k:2*k]
	} else if len(g.got) != k {
		g.got, g.sent = make([]gateTally, k), make([]gateTally, k)
	}
	clear(g.got)
	clear(g.sent)
}

// pass runs rec through the list in order and reports whether it passed
// every gate. A gate's error counts as its drop.
func (g *gateRun) pass(e *Env, rec []byte) (bool, error) {
	for i, gate := range g.list {
		o, err := gate.admit(e, rec)
		if err != nil {
			o = outDrop
		}
		g.got[i][o]++
		if o&outDrop != 0 {
			return false, err
		}
	}
	return true, nil
}

// flush hands each gate what reached it since the last flush: once per
// batch, not once per record.
func (g *gateRun) flush(e *Env) {
	for i, gate := range g.list {
		t := g.got[i]
		for o := range t {
			t[o] -= g.sent[i][o]
		}
		if t != (gateTally{}) {
			gate.flush(e, t)
			g.sent[i] = g.got[i]
		}
	}
}

// flushAt flushes as the tallies since Open the ones tallies holds at entry
// i, a tally per gate (sweepTape).
func (g *gateRun) flushAt(e *Env, tallies []gateTally, i int) {
	if k := len(g.list); k > 0 {
		copy(g.got, tallies[i*k:(i+1)*k])
		g.flush(e)
	}
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
// row). The scan runs them as gates (testGate), after its transfer probes and
// before it carves or decodes anything; the top filter's rows are the scan's
// output, counted by the wrapper buildIn puts round it.
type recordRun struct {
	scan    plan.Node      // a *plan.SeqScan or *plan.IndexScan
	filters []*plan.Filter // bottom first; filters[k] is tests[k]
	tests   []*testGate
}

// top is the run's highest filter, whose rows the scan emits.
func (r *recordRun) top() *plan.Filter { return r.filters[len(r.filters)-1] }

// testGate is a filter a scan absorbed (recordRun): its comparison, tested on
// the record. Under Profile it keeps what the filter's operator counted: rows
// is the actual= of the rows that reach it — the scan's own for the run's
// first test, else the filter's below — and prof takes the filter's
// evaluations.
type testGate struct {
	codec *catalog.RowCodec
	test  catalog.ColTest
	rows  *atomic.Int64 // nil unless profiling
	prof  *opCounters   // nil unless profiling
}

func (g *testGate) admit(_ *Env, rec []byte) (outcome, error) {
	ok, err := g.codec.Test(rec, g.test)
	return keepIf(ok), err
}

func (g *testGate) flush(_ *Env, t gateTally) {
	if g.rows != nil {
		in := int64(t.in())
		g.rows.Add(in)
		g.prof.predEvals.Add(in)
	}
}

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
	table, ok := plan.ScanTable(scan)
	if !ok {
		return nil
	}
	tab, err := e.Cat.Table(table)
	if err != nil || tab.Codec == nil || len(scan.Cols()) != len(tab.Columns) {
		return nil // the scan's constructor reports it
	}
	r, below := &recordRun{scan: scan}, scan
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
		g := &testGate{codec: tab.Codec, test: catalog.ColTest{Col: col, Op: p.Op, Val: p.Value}}
		if e.prof != nil {
			g.rows, g.prof = &e.nodeProf(below).rows, e.nodeProf(f)
		}
		r.filters, r.tests, below = append(r.filters, f), append(r.tests, g), f
	}
	if len(r.filters) == 0 {
		return nil
	}
	return r
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
// its contiguous share of the file's pages. Each record goes through the
// scan's gates (planGates) before any decode into a row, so a record one of
// them drops costs a field read and a test — never a row allocation. A scan
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
	alloc        rowAlloc
	// cols is what the scan decodes: every column, or a thin scan's need.
	cols []int
	thin *thinScan
	// ring is the one slab a thin scan carves every batch from: by the next
	// call its rows are dead, emitted or dropped.
	ring  []expr.Value
	memo  catalog.DecodeMemo
	gates gateRun
	// tape is the nested loop's inner read once, when the scan is that inner
	// (sweepTape): the scan records it in its one sweep, the join walks it.
	tape *sweepTape
}

func newSeqScan(e *Env, s *plan.SeqScan, rs *slabPool) (*seqScanIter, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if tab.Heap == nil || tab.Codec == nil {
		return nil, fmt.Errorf("exec: table %s has no storage", s.Table)
	}
	it := &seqScanIter{e: e, tab: tab, parts: 1, alloc: rowAlloc{pool: rs}, gates: gateRun{list: e.gates[s]}}
	if rs != nil { // a thin scan's ring is a slab of the rows' pool
		it.thin = e.thin[s]
	}
	return it, nil
}

// Open positions the scan on its share of the pages: every page is in
// exactly one part, so the parts together read what the serial scan reads.
// The gates are immutable while parts run them, so parts share them without
// locks; each part keeps its own tallies. Opened again, the scan rewinds the
// iterator it has.
func (s *seqScanIter) Open() error {
	if s.it == nil {
		n := s.tab.Heap.NumPages()
		s.it = s.e.heap(s.tab).ScanRange(n*s.part/s.parts, n*(s.part+1)/s.parts)
	} else {
		s.it.Rewind()
	}
	s.pg, s.slot, s.nslots, s.ring = nil, 0, 0, nil
	s.cols = s.tab.Codec.AllCols()
	if s.thin != nil {
		s.cols = s.thin.need
	}
	s.gates.open()
	return nil
}

// NextBatch walks the pinned page's slots (one storage call per page, no
// per-record copy) and decodes the records it keeps straight into
// slab-carved rows, checking for an abort — and for its exchange's shutdown —
// after each page it fetches. It is one loop parameterised by the column
// set: every column, or under thin the needed ones, with the row's place on
// its page left in the mark slot for whoever keeps the row.
func (s *seqScanIter) NextBatch(dst []expr.Row) (int, error) {
	if s.it == nil {
		return 0, fmt.Errorf("exec: NextBatch before Open on SeqScan(%s)", s.tab.Name)
	}
	defer s.gates.flush(s.e)
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
			if s.tape != nil && s.pg != nil {
				s.tape.endPage(&s.gates)
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
			if err := s.e.checkAbort(); err != nil {
				return 0, err
			}
			if s.xchg.stopping() {
				return 0, errExchangeStopped
			}
			continue
		}
		off, length, live := s.pg.Extent(storage.SlotID(s.slot))
		s.slot++
		if !live {
			continue
		}
		rec := s.src[off : off+length]
		if len(s.gates.list) > 0 {
			keep, err := s.gates.pass(s.e, rec)
			if err != nil {
				return 0, err
			}
			if !keep {
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
		if s.tape != nil {
			s.tape.keep(row, &s.gates)
		}
		dst[n] = row
		n++
	}
	return n, nil
}

// Close unpins the scan's page; the scan keeps its iterator for the next
// Open.
func (s *seqScanIter) Close() error {
	if s.it != nil {
		s.it.Close()
	}
	s.pg, s.slot, s.nslots = nil, 0, 0
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
	heap  *storage.HeapFile
	tids  []storage.TID
	pos   int
	rng   *btree.Iter
	alloc rowAlloc
	row   expr.Row // the fetch's row, carved only for a record take keeps
	memo  catalog.DecodeMemo
	gates gateRun
}

func newIndexScan(e *Env, s *plan.IndexScan, rs *slabPool) (Iterator, error) {
	tab, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if !tab.HasIndex(s.Col) {
		return nil, fmt.Errorf("exec: no index on %s.%s", s.Table, s.Col)
	}
	return &indexScanIter{e: e, node: s, tab: tab, alloc: rowAlloc{pool: rs}, gates: gateRun{list: e.gates[s]}}, nil
}

func (s *indexScanIter) Open() error {
	tree := s.e.index(s.tab.Indexes[s.node.Col])
	s.heap = s.e.heap(s.tab)
	s.tids = nil
	s.pos = 0
	s.rng = nil
	s.gates.open()
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
// under its page pin (HeapFile.View, take): a fetch one of its gates drops
// carves no row, and one they keep is decoded straight into a slab-carved
// row. It checks for an abort before each fetch.
func (s *indexScanIter) NextBatch(dst []expr.Row) (int, error) {
	defer s.gates.flush(s.e)
	n := 0
	for n < len(dst) {
		tid, ok := s.nextTID()
		if !ok {
			break
		}
		if err := s.e.checkAbort(); err != nil {
			return 0, err
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

// take runs rec through the gates and decodes a record they keep into s.row.
func (s *indexScanIter) take(rec []byte) error {
	if len(s.gates.list) > 0 {
		if keep, err := s.gates.pass(s.e, rec); !keep || err != nil {
			return err
		}
	}
	row := s.alloc.next(len(s.tab.Columns))
	if err := s.tab.Codec.DecodeIntoMemo(rec, row, &s.memo); err != nil {
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
	e    *Env
	in   Iterator
	pred *compiledPred
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
		if err := f.pred.holdsBatch(f.e, nil, f.buf[:m], f.keep[:m], &f.sc); err != nil {
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
