package exec

import (
	"fmt"
	"math/bits"
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
func (cp *compiledPred) holds(e *Env, row expr.Row, sc *predScratch) (bool, error) {
	sc.row[0] = row
	var keep [1]bool
	err := cp.holdsBatch(e, nil, sc.row[:], keep[:], sc)
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
// the rows one by one in order, at any batch width. Cached function
// predicates batch their cache traffic through GetBatch/PutBatch, taking
// each shard lock once per batch instead of twice per row.
func (cp *compiledPred) holdsBatch(e *Env, outer expr.Row, rows []expr.Row, keep []bool, sc *predScratch) error {
	p := cp.pred
	switch p.Kind {
	case query.KindSelCmp:
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
			b, known := cp.op.Apply(at(outer, row, cp.leftIdx), cp.constVal).Bool()
			keep[i] = known && b
		}
		return nil
	case query.KindJoinCmp:
		if cp.prof != nil {
			cp.prof.predEvals.Add(int64(len(rows)))
		}
		for i, row := range rows {
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
				if err := cp.holdsBatchCached(e, outer, rows[i:i+step], keep[i:i+step], sc); err != nil {
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
func (cp *compiledPred) holdsBatchCached(e *Env, outer expr.Row, rows []expr.Row, keep []bool, sc *predScratch) error {
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

// sweepMemo is a nested loop's memo of its cached primary's verdicts, kept
// for the whole query. A binding is the primary's arguments from the outer
// row, which a sweep fixes, and one inner int or bool column: the memo
// numbers the outer halves it meets (bind, once per sweep) and the inner
// values (number), and keeps for each outer half a verdict vector, one byte
// per inner value — so a repeated binding, within a sweep or in a later
// sweep whose outer row agrees on the primary's arguments, is answered
// without a key encode, hash or shard lock. A taped inner's rows carry their
// numbers (sweepTape), so a walked sweep reads its verdicts by index.
//
// It is kept only over an unbounded table, which is monotone: a binding the
// memo has decided was stored and stays stored, so the per-row protocol
// would have found it, and each answer from the memo is counted as that hit
// (pcache.Manager.AddHits). Invocations, hits, misses, entries and charged
// cost are therefore those of the per-row protocol. A bounded table evicts in
// FIFO order and keeps the per-row protocol.
type sweepMemo struct {
	col   int   // the primary's one inner argument, as a position in the pair
	outer []int // its outer arguments, as positions in the pair, in order
	// ids numbers the outer halves by their key encoding; verdicts holds
	// each one's vector, by inner value number (memoUndecided, memoKeep or
	// memoReject), and cur is the running sweep's.
	ids      map[string]int32
	verdicts [][]byte
	cur      int32
	key      []byte
	// slots is an open-addressed table of the inner values met (Fibonacci
	// hashing, linear probing, at most 3/4 full), a slot holding a value and
	// its number plus one (0: empty), and null is NULL's number plus one.
	slots []memoSlot
	null  int32
	shift uint
	used  int   // the slots holding a value
	vals  int32 // the values numbered, NULL among them
	// Batch scratch: each row's number, and the first occurrences of the
	// numbers the vector leaves undecided, with their numbers and verdicts.
	nums    []int32
	sub     []expr.Row
	subNum  []int32
	subKeep []bool
}

// memoSlot is one inner value's entry: the value and its number plus one.
type memoSlot struct {
	key int64
	num int32
}

// A verdict vector's entries.
const (
	memoUndecided byte = iota
	memoKeep
	memoReject
	memoPending // in the running batch's sub-batch
)

// newSweepMemo returns the memo of nested loop j's primary, as compilePred
// resolves it — or nil when the primary is not cached, its table is bounded,
// or the inner half of its binding is not one int or bool column.
func newSweepMemo(e *Env, j *plan.Join) *sweepMemo {
	if j.Primary == nil || !e.Cache.Batchable() {
		return nil
	}
	cols, outerWidth := joinCols(j), len(j.Outer.Cols())
	cp, err := compilePred(e, j.Primary, cols)
	if err != nil || cp.owner == "" {
		return nil // the join's constructor reports an error
	}
	m := &sweepMemo{col: -1, ids: map[string]int32{}}
	for _, idx := range cp.argIdx {
		switch {
		case idx < outerWidth:
			m.outer = append(m.outer, idx)
		case m.col >= 0 && m.col != idx:
			return nil
		default:
			m.col = idx
		}
	}
	if m.col < 0 {
		return nil
	}
	tab, err := e.Cat.Table(cols[m.col].Table)
	if err != nil || tab.Codec == nil {
		return nil
	}
	k := tab.ColIndex(cols[m.col].Col)
	if _, ok := tab.Codec.IntField(k); !ok {
		return nil
	}
	// Sized for the column's distinct values, so a query rarely grows it.
	slots := joinTableMinSlots
	for !memoFits(cardHint(float64(tab.Columns[k].Distinct)), slots) {
		slots *= 2
	}
	m.resize(slots)
	return m
}

// memoFits reports whether n values fit a table of the given slots: at
// most 3/4 full, where a linear probe is still short.
func memoFits(n, slots int) bool { return 4*n <= 3*slots }

// bind starts a sweep under outer: its half of the binding is numbered, and
// that half's vector is the one holds reads and writes.
func (m *sweepMemo) bind(outer expr.Row) {
	m.key = m.key[:0]
	for _, idx := range m.outer {
		m.key = outer[idx].AppendKey(m.key)
	}
	id, ok := m.ids[string(m.key)]
	if !ok {
		id = int32(len(m.verdicts))
		m.ids[string(m.key)] = id
		m.verdicts = append(m.verdicts, nil)
	}
	m.cur = id
}

// memoKey is v's key in the memo: its integer (a bool's is 0 or 1), and
// whether it is NULL, which has no integer of its own.
func memoKey(v expr.Value) (int64, bool) { return v.I, v.Kind == expr.TNull }

// slot returns key k's slot: the one holding k, or the empty one where k
// belongs.
func (m *sweepMemo) slot(k int64) *memoSlot {
	mask := uint64(len(m.slots) - 1)
	for s := fibHash(k, m.shift); ; s = (s + 1) & mask {
		if sl := &m.slots[s]; sl.num == 0 || sl.key == k {
			return sl
		}
	}
}

// number returns v's number, numbering it if it is new.
func (m *sweepMemo) number(v expr.Value) int32 {
	k, null := memoKey(v)
	if null {
		if m.null == 0 {
			m.vals++
			m.null = m.vals
		}
		return m.null - 1
	}
	sl := m.slot(k)
	if sl.num == 0 {
		if !memoFits(m.used+1, len(m.slots)) {
			m.resize(2 * len(m.slots))
			sl = m.slot(k)
		}
		m.used++
		m.vals++
		*sl = memoSlot{key: k, num: m.vals}
	}
	return sl.num - 1
}

// numbers returns the numbers of the inner values of rows, good until the
// next call.
func (m *sweepMemo) numbers(outer expr.Row, rows []expr.Row) []int32 {
	m.nums = m.nums[:0]
	for _, row := range rows {
		m.nums = append(m.nums, m.number(at(outer, row, m.col)))
	}
	return m.nums
}

// resize gives the table n slots, keeping its values.
func (m *sweepMemo) resize(n int) {
	old := m.slots
	m.slots = make([]memoSlot, n)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, sl := range old {
		if sl.num != 0 {
			*m.slot(sl.key) = sl
		}
	}
}

// holds is holdsBatch for cp over the pairs of outer, the bound outer row,
// with rows, whose inner values are numbered nums. A row whose number the
// vector has decided takes its verdict; the first occurrence of each number
// it has not goes, in row order, through holdsBatchCached as one sub-batch,
// whose verdicts the vector then keeps for the rows after it.
func (m *sweepMemo) holds(e *Env, cp *compiledPred, outer expr.Row, rows []expr.Row, nums []int32, keep []bool, sc *predScratch) error {
	vec := m.verdicts[m.cur]
	if len(vec) < int(m.vals) {
		vec = append(vec, make([]byte, int(m.vals)-len(vec))...)
		m.verdicts[m.cur] = vec
	}
	m.sub, m.subNum = m.sub[:0], m.subNum[:0]
	for i, num := range nums {
		if vec[num] == memoUndecided {
			vec[num] = memoPending
			m.sub = append(m.sub, rows[i])
			m.subNum = append(m.subNum, num)
		}
	}
	if len(m.sub) > 0 {
		if cap(m.subKeep) < len(m.sub) {
			m.subKeep = make([]bool, len(m.sub), 2*len(m.sub))
		}
		subKeep := m.subKeep[:len(m.sub)]
		if err := cp.holdsBatchCached(e, outer, m.sub, subKeep, sc); err != nil {
			return err // the query ends, and the memo with it
		}
		for j, num := range m.subNum {
			vec[num] = memoReject
			if subKeep[j] {
				vec[num] = memoKeep
			}
		}
	}
	for i, num := range nums {
		keep[i] = vec[num] == memoKeep
	}
	if hits := len(rows) - len(m.sub); hits > 0 {
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
