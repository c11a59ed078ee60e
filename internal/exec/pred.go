package exec

import (
	"fmt"
	"sync/atomic"

	"predplace/internal/expr"
	"predplace/internal/pcache"
	"predplace/internal/plan"
	"predplace/internal/query"
)

// compiledPred is a predicate with its column references resolved to row
// positions for a specific operator's output schema.
type compiledPred struct {
	pred *query.Predicate
	// comparison predicates
	op       expr.CmpOp
	leftIdx  int
	rightIdx int        // -1 for col-vs-const
	constVal expr.Value // col-vs-const
	// function predicates; owner is the predicate's cache table, resolved
	// once at compile time and empty when results are not cached (caching
	// off, or a non-cacheable function)
	argIdx []int
	owner  string
	// calls is the query's invocation counter of a function predicate's
	// function, resolved once here instead of once per call (Env.invoke).
	calls *atomic.Int64
	// prof, when profiling is on, receives this predicate's evaluation,
	// invocation, and cache counters, attributed to the plan node the
	// predicate executes at. Nil on the default path (no per-row overhead).
	prof *opCounters
}

// compilePred resolves p's column references — p.Cols, the one list of them
// — against cols.
func compilePred(e *Env, p *query.Predicate, cols []query.ColRef) (*compiledPred, error) {
	find := func(ref query.ColRef) (int, error) {
		for i, c := range cols {
			if c == ref {
				return i, nil
			}
		}
		return -1, fmt.Errorf("exec: column %s not in operator schema %v", ref, cols)
	}
	cp := &compiledPred{pred: p, op: p.Op, rightIdx: -1}
	var buf [4]query.ColRef
	refs := p.Cols(buf[:0])
	idx := make([]int, len(refs))
	for k, ref := range refs {
		i, err := find(ref)
		if err != nil {
			return nil, err
		}
		idx[k] = i
	}
	switch p.Kind {
	case query.KindSelCmp:
		cp.leftIdx, cp.constVal = idx[0], p.Value
	case query.KindJoinCmp:
		cp.leftIdx, cp.rightIdx = idx[0], idx[1]
	case query.KindFunc:
		cp.argIdx, cp.calls = idx, e.funcCount(p.Func)
		if e.Cache.Enabled() && p.Func.Cacheable {
			cp.owner = e.Cache.Owner(p.ID, p.Func.Name)
		}
	default:
		return nil, fmt.Errorf("exec: unknown predicate kind %d", p.Kind)
	}
	return cp, nil
}

// noteInvocation counts one user-defined function call (and its per-call
// charge) into the predicate's plan node. Callers check cp.prof != nil.
func (cp *compiledPred) noteInvocation() {
	cp.prof.invocations.Add(1)
	if f := cp.pred.Func; !f.RealWork {
		// RealWork functions charge through the I/O accountant instead of a
		// per-call constant (expr.FuncDef.ChargedCost); mirror that here so
		// per-node FuncCharge sums to Stats.FuncCharge.
		cp.prof.addCharge(f.Cost)
	}
}

// holds reports whether the predicate is satisfied (NULL and false both
// reject the row, per SQL WHERE semantics): holdsBatch at width 1, so the
// tuple path shares the batch path's scratch buffers and cache protocol.
// The caller keeps its own abort cadence; the counter here is a throwaway.
func (cp *compiledPred) holds(e *Env, row expr.Row, sc *predScratch) (bool, error) {
	sc.row[0] = row
	var keep [1]bool
	tick := 0
	err := cp.holdsBatch(e, nil, sc.row[:], keep[:], &tick, sc)
	return keep[0], err
}

// at is column i of the pair (outer, row) without making it: outer's
// columns first, then row's. With no outer it is row[i].
func at(outer, row expr.Row, i int) expr.Value {
	if i < len(outer) {
		return outer[i]
	}
	return row[i-len(outer)]
}

// budgetEvery is the input-row cadence of filter abort checks — budget and
// cancellation alike.
const budgetEvery = 32

// predScratch holds the reusable buffers of batched predicate evaluation,
// so the hot path allocates nothing per batch: binding keys are encoded
// into one contiguous byte buffer and sliced per row, cache outcomes land
// in a reused entry slice, and argument vectors are reused across rows.
type predScratch struct {
	keyBuf  []byte
	keyOff  []int
	keys    [][]byte
	entries []pcache.BatchEntry
	args    []expr.Value
	row     [1]expr.Row // holds' one-row batch
}

// holdsBatch evaluates the predicate over a whole batch, writing keep[i]
// for each row — a filter's rows (outer nil), or a nested loop's pairs of
// the one outer row with each of rows, read in place (at) and never made.
// Results, invocation counts, and cache statistics are those of evaluating
// the rows one by one in order, at any batch width; count carries the
// every-32-rows budget-check cadence across batches. Cached function
// predicates batch their cache traffic through GetBatch/PutBatch, taking
// each shard lock once per batch instead of twice per row.
func (cp *compiledPred) holdsBatch(e *Env, outer expr.Row, rows []expr.Row, keep []bool, count *int, sc *predScratch) error {
	p := cp.pred
	tick := func() error {
		*count++
		if *count%budgetEvery == 0 {
			return e.checkAbort()
		}
		return nil
	}
	switch p.Kind {
	case query.KindSelCmp:
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
			if err := tick(); err != nil {
				return err
			}
			b, known := cp.op.Apply(at(outer, row, cp.leftIdx), cp.constVal).Bool()
			keep[i] = known && b
		}
		return nil
	case query.KindJoinCmp:
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
			if err := tick(); err != nil {
				return err
			}
			b, known := cp.op.Apply(at(outer, row, cp.leftIdx), at(outer, row, cp.rightIdx)).Bool()
			keep[i] = known && b
		}
		return nil
	case query.KindFunc:
		if cp.owner != "" {
			// Bounded tables evict in FIFO order, which depends on how lookups
			// and stores interleave: they run the protocol one row at a time.
			step := len(rows)
			if !e.Cache.Batchable() {
				step = 1
			}
			for i := 0; i < len(rows); i += step {
				if err := cp.holdsBatchCached(e, outer, rows[i:i+step], keep[i:i+step], count, sc); err != nil {
					return err
				}
			}
			return nil
		}
		// Uncached path: evaluate row by row, reusing one argument vector.
		if cap(sc.args) < len(cp.argIdx) {
			sc.args = make([]expr.Value, len(cp.argIdx))
		}
		args := sc.args[:len(cp.argIdx)]
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
			if err := tick(); err != nil {
				return err
			}
			for k, idx := range cp.argIdx {
				args[k] = at(outer, row, idx)
			}
			if cp.prof != nil {
				cp.noteInvocation()
			}
			v, err := e.invoke(p.Func, cp.calls, args)
			if err != nil {
				return err
			}
			b, known := v.Bool()
			keep[i] = known && b
		}
		return nil
	}
	return fmt.Errorf("exec: unknown predicate kind %d", p.Kind)
}

// holdsBatchCached is the batched cache protocol for one batch of rows:
// encode every binding, look them all up with one GetBatch, invoke the
// function only for first-occurrence misses (duplicates within the batch
// reuse the earlier result, exactly as sequential execution would have hit
// the just-stored entry), then publish the new results with one PutBatch.
// Under a nested loop the rows are pairs with outer, as in holdsBatch.
func (cp *compiledPred) holdsBatchCached(e *Env, outer expr.Row, rows []expr.Row, keep []bool, count *int, sc *predScratch) error {
	p := cp.pred
	n := len(rows)
	// Encode all bindings into one buffer; offsets first, slices after, so
	// buffer growth cannot invalidate earlier keys.
	sc.keyBuf = sc.keyBuf[:0]
	sc.keyOff = append(sc.keyOff[:0], 0)
	for _, row := range rows {
		for _, idx := range cp.argIdx {
			sc.keyBuf = at(outer, row, idx).AppendKey(sc.keyBuf)
		}
		sc.keyOff = append(sc.keyOff, len(sc.keyBuf))
	}
	if cap(sc.keys) < n {
		sc.keys = make([][]byte, n)
	}
	keys := sc.keys[:n]
	for i := 0; i < n; i++ {
		keys[i] = sc.keyBuf[sc.keyOff[i]:sc.keyOff[i+1]]
	}
	if cap(sc.entries) < n {
		sc.entries = make([]pcache.BatchEntry, n)
	}
	entries := sc.entries[:n]
	e.Cache.GetBatch(cp.owner, keys, entries)
	if cap(sc.args) < len(cp.argIdx) {
		sc.args = make([]expr.Value, len(cp.argIdx))
	}
	args := sc.args[:len(cp.argIdx)]
	if cp.prof != nil {
		cp.prof.predEvals.Add(int64(n))
	}
	for i := range entries {
		*count++
		if *count%budgetEvery == 0 {
			if err := e.checkAbort(); err != nil {
				return err
			}
		}
		switch entries[i].State {
		case pcache.BatchMiss:
			for k, idx := range cp.argIdx {
				args[k] = at(outer, rows[i], idx)
			}
			if cp.prof != nil {
				cp.prof.cacheMisses.Add(1)
				cp.noteInvocation()
			}
			v, err := e.invoke(p.Func, cp.calls, args)
			if err != nil {
				return err
			}
			entries[i].Val = v
		case pcache.BatchDup:
			// pcache counts an in-batch duplicate as a hit (the sequential
			// execution it mirrors would have hit the just-stored entry).
			if cp.prof != nil {
				cp.prof.cacheHits.Add(1)
			}
			entries[i].Val = entries[entries[i].Dup].Val
		default: // BatchHit
			if cp.prof != nil {
				cp.prof.cacheHits.Add(1)
			}
		}
	}
	e.Cache.PutBatch(cp.owner, keys, entries)
	for i := range entries {
		b, known := entries[i].Val.Bool()
		keep[i] = known && b
	}
	return nil
}

// sweepMemo is a nested loop's memo of its cached primary over one sweep of
// the inner: within a sweep the outer half of every binding is the one outer
// row, so the inner half alone names a binding, and an inner column with
// repeats asks the cache the same question many times. The memo keeps the
// verdict of each inner value the sweep has settled and answers its repeats
// without a key encode, hash or shard lock.
//
// It is kept only over an unbounded table, which is monotone: a binding the
// sweep has settled is stored and stays stored, so the per-row protocol would
// have found it, and each answer from the memo is counted as that hit
// (pcache.Manager.AddHits). Invocations, hits, misses, entries and charged
// cost are therefore those of the per-row protocol. A bounded table evicts in
// FIFO order and keeps the per-row protocol.
type sweepMemo struct {
	col int // the primary's one inner argument, as a position in the pair
	// seen maps a settled inner value to memoKeep or memoReject; within a
	// batch, a value first met there maps to its index in sub. null is the
	// same for NULL, memoAbsent until the sweep meets one.
	seen map[int64]int32
	null int32
	// Batch scratch: the first occurrences of the values the memo lacks,
	// their verdicts, and each row's entry.
	sub     []expr.Row
	subKeep []bool
	of      []int32
}

// Memo entries below zero; one at or above zero is a sub-batch index.
const (
	memoKeep int32 = -1 - iota
	memoReject
	memoAbsent
)

// newSweepMemo returns the memo of a nested loop whose primary cp reads pairs
// of cols, the first outerWidth of them from the outer row — or nil when the
// primary is not cached, its table is bounded, or the inner half of its
// binding is not one int or bool column.
func newSweepMemo(e *Env, cp *compiledPred, cols []query.ColRef, outerWidth int) *sweepMemo {
	if cp.owner == "" || !e.Cache.Batchable() {
		return nil
	}
	col := -1
	for _, idx := range cp.argIdx {
		if idx < outerWidth {
			continue
		}
		if col >= 0 && col != idx {
			return nil
		}
		col = idx
	}
	if col < 0 {
		return nil
	}
	tab, err := e.Cat.Table(cols[col].Table)
	if err != nil {
		return nil
	}
	if c, err := tab.Column(cols[col].Col); err != nil || c.Type != expr.TInt && c.Type != expr.TBool {
		return nil
	}
	return &sweepMemo{col: col, seen: map[int64]int32{}, null: memoAbsent}
}

// reset starts a sweep: the map is cleared, keeping its buckets.
func (m *sweepMemo) reset() {
	clear(m.seen)
	m.null = memoAbsent
}

// memoKey is v's key in the memo: its integer (a bool's is 0 or 1), and
// whether it is NULL, which has no integer of its own.
func memoKey(v expr.Value) (int64, bool) { return v.I, v.Kind == expr.TNull }

func (m *sweepMemo) get(v expr.Value) (int32, bool) {
	k, null := memoKey(v)
	if null {
		return m.null, m.null != memoAbsent
	}
	r, ok := m.seen[k]
	return r, ok
}

func (m *sweepMemo) put(v expr.Value, r int32) {
	if k, null := memoKey(v); null {
		m.null = r
	} else {
		m.seen[k] = r
	}
}

// holds is holdsBatch for cp over the pairs of outer with rows. A row whose
// inner value the memo holds takes its verdict; the first occurrence of each
// value it lacks goes, in row order, through holdsBatchCached as one
// sub-batch, and the rows after it with that value take its verdict.
func (m *sweepMemo) holds(e *Env, cp *compiledPred, outer expr.Row, rows []expr.Row, keep []bool, count *int, sc *predScratch) error {
	n := len(rows)
	if cap(m.of) < n {
		m.of, m.subKeep = make([]int32, n), make([]bool, n)
	}
	of := m.of[:n]
	m.sub = m.sub[:0]
	for i, row := range rows {
		v := at(outer, row, m.col)
		r, ok := m.get(v)
		if !ok {
			r = int32(len(m.sub))
			m.sub = append(m.sub, row)
			m.put(v, r)
		}
		of[i] = r
	}
	subKeep := m.subKeep[:len(m.sub)]
	if len(m.sub) > 0 {
		if err := cp.holdsBatchCached(e, outer, m.sub, subKeep, count, sc); err != nil {
			return err
		}
		for j, row := range m.sub {
			r := memoReject
			if subKeep[j] {
				r = memoKeep
			}
			m.put(at(outer, row, m.col), r)
		}
	}
	for i, r := range of {
		if r >= 0 {
			keep[i] = subKeep[r]
		} else {
			keep[i] = r == memoKeep
		}
	}
	if hits := n - len(m.sub); hits > 0 {
		e.Cache.AddHits(hits)
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(hits))
			cp.prof.cacheHits.Add(int64(hits))
		}
	}
	return nil
}

// compilePreds compiles a slice of predicates against one schema.
func compilePreds(e *Env, ps []*query.Predicate, cols []query.ColRef) ([]*compiledPred, error) {
	out := make([]*compiledPred, 0, len(ps))
	for _, p := range ps {
		cp, err := compilePred(e, p, cols)
		if err != nil {
			return nil, err
		}
		out = append(out, cp)
	}
	return out, nil
}

// joinKeyIdx resolves which side of an equality join predicate lives in
// which child, returning the outer and inner column positions.
func joinKeyIdx(p *query.Predicate, outer, inner plan.Node) (outIdx, inIdx int, err error) {
	if p == nil || p.Kind != query.KindJoinCmp || p.Op != expr.OpEQ {
		return 0, 0, fmt.Errorf("exec: join method requires an equality join predicate, got %v", p)
	}
	lo := plan.ColIndex(outer, p.Left)
	ri := plan.ColIndex(inner, p.Right)
	if lo >= 0 && ri >= 0 {
		return lo, ri, nil
	}
	lo2 := plan.ColIndex(outer, p.Right)
	ri2 := plan.ColIndex(inner, p.Left)
	if lo2 >= 0 && ri2 >= 0 {
		return lo2, ri2, nil
	}
	return 0, 0, fmt.Errorf("exec: join predicate %v does not span the two inputs", p)
}
