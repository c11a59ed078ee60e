package exec

// Predicate transfer (DESIGN.md §16): before the main plan runs, a prepass
// walks the join graph's equality classes and floods selectivity sideways
// through Bloom filters. Each class keeps one current filter; tables are
// scanned smallest-estimated first (forward), then in reverse (backward),
// and every scan probes the class's previous filter, applies the table's own
// local predicates, and rebuilds the filter from its survivors. By
// induction, any value that can appear in the final join output survives
// every rebuild (the filter has no false negatives), so the main plan's
// scans can consult the final filters and drop non-matching rows before
// paying for the full-row decode.
//
// The prepass is always serial and deterministic regardless of
// Env.Parallelism/BatchSize, and every filter build and probe is charged
// into the cost model (ChargeBloomAdd/ChargeBloomProbe) — transfer is never
// free. A backward-pass rescan is skipped when none of the table's class
// filters changed since its forward scan (version counters), so the pass
// costs at most two heap scans per transferred table and usually less.

import (
	"sort"
	"sync/atomic"

	"predplace/internal/catalog"
	"predplace/internal/cost"
	"predplace/internal/expr"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// transferClass is one join-key equivalence class: the transitive closure of
// two-table equality join predicates. Every column in the class is equal in
// every output row, so a filter built from any member's surviving values is
// a sound pre-filter for every other member.
type transferClass struct {
	// filter is the class's current filter (nil until the first build);
	// replaced wholesale after each contributing table scan.
	filter  *bloomFilter
	version int
	// keys mirrors the exact hash set behind filter — only captured while
	// profiling, to measure the actual false-positive rate.
	keys map[uint64]struct{}
}

// transferSlot binds one table column to its class. field is the column's
// IntField when it is an int column, which the transfer gates read in place;
// else the zero IntField, whose Read reports !ok, and they decode the column.
type transferSlot struct {
	class  *transferClass
	colIdx int
	field  catalog.IntField
}

// transferTable is one base table participating in the transfer schedule.
type transferTable struct {
	tab   *catalog.Table
	slots []transferSlot
	// cheap holds the zero-cost single-table comparisons, tested on the raw
	// record as a scan tests the filters it absorbed.
	cheap []catalog.ColTest
	// costly holds cacheable expensive single-table predicates, evaluated in
	// the prepass only when the predicate cache is on (the invocations warm
	// the same cache entries the main plan will hit, so the work is paid
	// once and the survivors sharpen every filter the table seeds).
	costly []*compiledPred
	est    float64 // estimated rows after local predicates
	seen   []int   // class versions at this table's last prepass scan
}

// transferState carries the prepass's filters and counters through the rest
// of the query; main-plan scans probe its filters (probeGate), immutable by
// then.
type transferState struct {
	classes []*transferClass
	tables  map[string]*transferTable
	order   []*transferTable

	filtersBuilt   int
	buildRows      int64
	prepassCharged float64
	prepassProbes  int64

	pruned      atomic.Int64
	fpNonMember atomic.Int64
	fpFalse     atomic.Int64
}

// newTransferState derives the transfer schedule from a plan tree: join-key
// equivalence classes from its equality join predicates, local predicates
// per base table, and the smallest-first scan order. Returns nil when the
// plan has no class spanning two tables (single-table queries, pure
// expensive-join graphs) — transfer then has nothing to do.
func newTransferState(e *Env, root plan.Node) (*transferState, error) {
	var preds []*query.Predicate
	seenPred := map[*query.Predicate]bool{}
	addPred := func(p *query.Predicate) {
		if p != nil && !seenPred[p] {
			seenPred[p] = true
			preds = append(preds, p)
		}
	}
	plan.Walk(root, func(n plan.Node) {
		switch t := n.(type) {
		case *plan.IndexScan:
			addPred(t.Matched)
		case *plan.Filter:
			addPred(t.Pred)
		case *plan.Join:
			addPred(t.Primary)
		}
	})
	classes := query.JoinKeyClasses(preds)
	if len(classes) == 0 {
		return nil, nil
	}

	ts := &transferState{tables: map[string]*transferTable{}}
	table := func(name string) (*transferTable, error) {
		if t := ts.tables[name]; t != nil {
			return t, nil
		}
		tab, err := e.Cat.Table(name)
		if err != nil {
			return nil, err
		}
		t := &transferTable{tab: tab, est: float64(tab.Card)}
		ts.tables[name] = t
		return t, nil
	}
	for _, members := range classes {
		c := &transferClass{}
		for _, ref := range members {
			t, err := table(ref.Table)
			if err != nil {
				return nil, err
			}
			col := t.tab.ColIndex(ref.Col)
			s := transferSlot{class: c, colIdx: col}
			if t.tab.Columns[col].Type == expr.TInt {
				s.field, _ = t.tab.Codec.IntField(col)
			}
			t.slots = append(t.slots, s)
			t.seen = append(t.seen, 0)
		}
		ts.classes = append(ts.classes, c)
	}

	// Local predicates (Predicate.TransferLocal): cheap comparisons tested on
	// the record, cacheable functions through the cache.
	for _, p := range preds {
		if len(p.Tables) != 1 || !p.TransferLocal(e.Cache.Enabled()) {
			continue
		}
		t := ts.tables[p.Tables[0]]
		if t == nil {
			continue
		}
		if p.Kind == query.KindSelCmp {
			idx := t.tab.ColIndex(p.Left.Col)
			if idx < 0 {
				continue
			}
			t.cheap = append(t.cheap, catalog.ColTest{Col: idx, Op: p.Op, Val: p.Value})
		} else {
			cols := make([]query.ColRef, len(t.tab.Columns))
			for i, c := range t.tab.Columns {
				cols[i] = query.ColRef{Table: t.tab.Name, Col: c.Name}
			}
			cp, err := compilePred(e, p, cols)
			if err != nil {
				return nil, err
			}
			t.costly = append(t.costly, cp)
		}
		if s := p.Selectivity; s > 0 && s < 1 {
			t.est *= s
		}
	}

	ts.order = make([]*transferTable, 0, len(ts.tables))
	for _, t := range ts.tables {
		ts.order = append(ts.order, t)
	}
	sort.Slice(ts.order, func(i, j int) bool {
		a, b := ts.order[i], ts.order[j]
		if a.est != b.est {
			return a.est < b.est
		}
		return a.tab.Name < b.tab.Name
	})
	return ts, nil
}

// runTransferPrepass derives the transfer schedule from the plan and
// executes it: a forward pass over the tables smallest-first, then a
// backward pass that rescans only tables whose received filters changed.
// Errors (budget, cancellation, injected faults) propagate exactly as main
// execution errors do; the heap iterators are closed on every path.
func (e *Env) runTransferPrepass(root plan.Node) error {
	ts, err := newTransferState(e, root)
	if err != nil || ts == nil {
		return err
	}
	charged0 := e.Charged()
	probes0 := e.bloomProbes.Load()
	for _, t := range ts.order {
		if err := ts.scanTable(e, t); err != nil {
			return err
		}
	}
	for i := len(ts.order) - 1; i >= 0; i-- {
		t := ts.order[i]
		if !t.dirty() {
			continue
		}
		if err := ts.scanTable(e, t); err != nil {
			return err
		}
	}
	ts.prepassCharged = e.Charged() - charged0
	ts.prepassProbes = e.bloomProbes.Load() - probes0
	// Leave the query's I/O ledger cold: the prepass scans warm the
	// simulated LRU in a serial, schedule-dependent order, and the main
	// plan's charged hit pattern against that leftover state would vary with
	// executor mode (tuple vs batch, serial vs parallel partition
	// interleaving). Evicting the simulation makes each main-scan page miss
	// exactly once regardless of mode, keeping the charged cost
	// deterministic and parallelism/batching-invariant. The shared pool is
	// left alone — other sessions' resident pages are not ours to evict, and
	// physical residency no longer affects this query's measurement.
	e.tracker.EvictUnpinned()
	e.transfer = ts
	return nil
}

// dirty reports whether any of the table's class filters was rebuilt since
// its last prepass scan — the backward pass's skip condition.
func (t *transferTable) dirty() bool {
	for i, s := range t.slots {
		if s.class.version != t.seen[i] {
			return true
		}
	}
	return false
}

// scanTable runs one prepass scan of a table through the executor's heap
// scan, whose gates drop in order what the table's cheap local comparisons
// reject (testGate), a record whose key is NULL in any of its classes
// (nullGate), and what a class filter built so far rejects (probeGate, in
// slot order). The survivors, decoded in their key and costly-argument
// columns only (thinScan), face the cacheable expensive predicates, and the
// keys that remain rebuild every class filter the table contributes to. The
// class filters are replaced only after the scan completes, so the scan
// consistently probes the pre-scan filters.
func (ts *transferState) scanTable(e *Env, t *transferTable) error {
	codec := t.tab.Codec
	var gates []recordGate
	for _, ct := range t.cheap {
		gates = append(gates, &testGate{codec: codec, test: ct})
	}
	gates = append(gates, &nullGate{codec: codec, slots: t.slots})
	for _, s := range t.slots {
		if s.class.filter != nil {
			gates = append(gates, &probeGate{codec: codec, slot: s, filter: s.class.filter, ts: ts})
		}
	}
	needed := make([]bool, len(t.tab.Columns))
	for _, s := range t.slots {
		needed[s.colIdx] = true
	}
	for _, cp := range t.costly {
		for _, idx := range cp.argIdx {
			needed[idx] = true
		}
	}
	// A thin scan carves every batch from one slab of pool; a scan that
	// needs every column decodes whole rows into fresh slabs.
	var pool slabPool
	defer pool.release()
	scan := &seqScanIter{e: e, tab: t.tab, parts: 1, gates: gateRun{list: gates}, thin: newThinScan(codec, needed, 1)}
	if scan.thin != nil {
		scan.alloc.pool = &pool
	}
	if err := scan.Open(); err != nil {
		return err
	}
	defer scan.Close()

	builders := map[*transferClass]*bloomFilter{}
	var keysets map[*transferClass]map[uint64]struct{}
	if e.prof != nil {
		keysets = map[*transferClass]map[uint64]struct{}{}
	}
	for _, s := range t.slots {
		if builders[s.class] == nil {
			builders[s.class] = newBloomFilter(int64(t.est) + 1)
			if keysets != nil {
				keysets[s.class] = map[uint64]struct{}{}
			}
		}
	}

	var (
		rows [DefaultBatchSize]expr.Row
		keep [DefaultBatchSize]bool
		sc   predScratch
	)
	added := 0
	for {
		n, err := scan.NextBatch(rows[:])
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		batch := rows[:n]
		for _, cp := range t.costly {
			if err := cp.holdsBatch(e, nil, batch, keep[:len(batch)], &sc); err != nil {
				return err
			}
			m := 0
			for i, row := range batch {
				if keep[i] {
					batch[m] = row
					m++
				}
			}
			batch = batch[:m]
		}
		for _, s := range t.slots {
			b, ks := builders[s.class], keysets[s.class]
			for _, row := range batch {
				h := bloomHash(row[s.colIdx])
				b.Add(h)
				if ks != nil {
					ks[h] = struct{}{}
				}
			}
		}
		added += len(batch) * len(t.slots)
	}
	e.ChargeBloomAdd(added)
	ts.buildRows += int64(added)

	// Publish: replace each contributed class filter with this table's
	// rebuild and remember the versions this scan saw.
	for si, s := range t.slots {
		if b := builders[s.class]; b != nil {
			s.class.filter, s.class.keys = b, keysets[s.class]
			s.class.version++
			ts.filtersBuilt++
			delete(builders, s.class)
		}
		t.seen[si] = s.class.version
	}
	return nil
}

// nullGate drops a record whose key is NULL in any of its table's classes:
// a NULL never equi-joins, so the row cannot reach the output and feeds no
// filter. It counts nothing.
type nullGate struct {
	codec *catalog.RowCodec
	slots []transferSlot
}

func (g *nullGate) admit(_ *Env, rec []byte) (outcome, error) {
	for _, s := range g.slots {
		_, null, ok := s.field.Read(rec)
		if !ok {
			v, err := g.codec.DecodeCol(rec, s.colIdx)
			if err != nil {
				return outDrop, err
			}
			null = v.IsNull()
		}
		if null {
			return outDrop, nil
		}
	}
	return outKeep, nil
}

func (*nullGate) flush(*Env, gateTally) {}

// table returns the schedule's entry for a base table: nil when there is no
// schedule (transfer off, or the prepass built nothing) or the table is
// outside every class.
func (ts *transferState) table(name string) *transferTable {
	if ts == nil {
		return nil
	}
	return ts.tables[name]
}

// probeGate is one Bloom filter a scan received — a main-plan scan
// (planGates, one per class filter of its table, in slot order) or a prepass
// scan (scanTable, one per class filter built so far): it reads the
// record's key column alone (transferSlot) and probes the filter with it. A
// NULL key is pruned without a probe (NULL never equi-joins). Its tallies
// charge the probes and count each record pruned once, in ts's pruned count
// and, under Profile, a main-plan scan's; tc, nil unless profiling a
// main-plan scan, also takes the probes. keys, nil unless profiling captured
// the filter's key set for a main-plan scan, makes the probes feed the exact
// false-positive measurement: every key the filter drops is outside the set
// (a Bloom filter has no false negatives), and admit marks a kept one that
// is.
type probeGate struct {
	codec  *catalog.RowCodec
	slot   transferSlot
	filter *bloomFilter
	keys   map[uint64]struct{}
	ts     *transferState
	tc     *opCounters
}

func (g *probeGate) admit(_ *Env, rec []byte) (outcome, error) {
	v, null, ok := g.slot.field.Read(rec)
	h := bloomHash(expr.I(v))
	if !ok {
		x, err := g.codec.DecodeCol(rec, g.slot.colIdx)
		if err != nil {
			return outDrop | outMark, err
		}
		null, h = x.IsNull(), bloomHash(x)
	}
	if null {
		return outDrop | outMark, nil
	}
	o := keepIf(g.filter.Test(h))
	if o == outKeep && g.keys != nil {
		if _, member := g.keys[h]; !member {
			o = outMark
		}
	}
	return o, nil
}

func (g *probeGate) flush(e *Env, t gateTally) {
	probes := t[outKeep] + t[outMark] + t[outDrop]
	e.ChargeBloomProbe(probes)
	d := int64(t.dropped())
	g.ts.pruned.Add(d)
	if g.tc != nil {
		g.tc.transferProbes.Add(int64(probes))
		g.tc.transferPruned.Add(d)
	}
	if g.keys != nil {
		g.ts.fpNonMember.Add(int64(t[outMark] + t[outDrop]))
		g.ts.fpFalse.Add(int64(t[outMark]))
	}
}

// stats summarizes the transfer stage for Stats/EXPLAIN ANALYZE.
func (ts *transferState) stats(e *Env) *TransferStats {
	s := &TransferStats{
		Classes:        len(ts.classes),
		FiltersBuilt:   ts.filtersBuilt,
		BuildRows:      ts.buildRows,
		Probes:         e.bloomProbes.Load(),
		Pruned:         ts.pruned.Load(),
		PrepassCharged: ts.prepassCharged,
		ProbeCharge:    float64(e.bloomProbes.Load()-ts.prepassProbes) * cost.BloomProbePerTuple,
		FPActual:       -1,
	}
	for _, c := range ts.classes {
		if c.filter != nil {
			s.FPEst += c.filter.EstFPRate()
		}
	}
	if len(ts.classes) > 0 {
		s.FPEst /= float64(len(ts.classes))
	}
	if nm := ts.fpNonMember.Load(); nm > 0 {
		s.FPActual = float64(ts.fpFalse.Load()) / float64(nm)
	}
	return s
}
