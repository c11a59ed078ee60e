// Package pcache implements Montage-style predicate caching (paper §5.1):
// each expensive predicate owns a main-memory dynamic hash table keyed on
// the binding of its input variables, storing the result of the *entire
// predicate* — true, false, or NULL — never the raw function result (whose
// type may be an arbitrarily large derived object, e.g. a subquery's set).
package pcache

import (
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"

	"predplace/internal/expr"
)

// stripes is the number of lock shards per unbounded cache table. Parallel
// workers evaluating the same predicate hash their bindings across shards,
// so lookups and stores rarely contend on one mutex. A binding's shard is
// the top stripeBits of its hash; its slot in the shard, the low bits.
const (
	stripeBits = 4
	stripes    = 1 << stripeBits
)

// seed keys the binding hash. A binding is hashed once per call, with
// maphash (8 bytes at a time), and that one hash picks its shard, probes
// the shard's table and finds its in-batch duplicates.
var seed = maphash.MakeSeed()

// Manager holds one cache per predicate for the duration of a query.
// Caches are dropped between queries, exactly like the per-query hash
// tables in Montage.
//
// The manager is safe for concurrent use: hit/miss counters are atomics and
// each cache table is striped into lock shards keyed by a hash of the
// binding. Bounded tables (maxEntries > 0) use a single shard so the FIFO
// eviction order below is exact.
type Manager struct {
	// enabled gates all caching; a disabled manager misses on every lookup.
	enabled bool
	// maxEntries bounds each predicate's table (0 = unbounded); when full,
	// the oldest entry is evicted (deterministic FIFO — the paper notes any
	// of a variety of replacement schemes may be used, and a deterministic
	// one keeps bounded-cache runs reproducible across processes).
	maxEntries int
	hits       atomic.Int64
	misses     atomic.Int64

	mu     sync.RWMutex
	caches map[string]*cache
}

// cache is one predicate's table, striped into lock shards.
type cache struct {
	shards []cacheShard
}

// tri is a cached predicate outcome: true, false or NULL. The zero value
// marks an empty slot.
type tri uint8

const (
	triEmpty tri = iota
	triFalse
	triTrue
	triNull
)

// triOf is the predicate's tri-state outcome of v: NULL and non-boolean
// values are unknown, as Value.Bool reads them.
func triOf(v expr.Value) tri {
	b, known := v.Bool()
	switch {
	case !known:
		return triNull
	case b:
		return triTrue
	}
	return triFalse
}

// value is r as the predicate's result.
func (r tri) value() expr.Value {
	switch r {
	case triTrue:
		return expr.B(true)
	case triFalse:
		return expr.B(false)
	default:
		return expr.Null
	}
}

// slot is one entry of a shard's table.
type slot struct {
	hash uint64
	key  string
	res  tri
}

// fifoKey names a bounded table's binding in its eviction queue.
type fifoKey struct {
	hash uint64
	key  string
}

// cacheShard is an open-addressed table probed linearly from a binding's
// hash, compared by hash and then by key bytes. Its length is a power of two
// and at most three quarters of it is full; a removal shifts the probe run
// after it back, so there are no tombstones.
type cacheShard struct {
	mu    sync.Mutex
	slots []slot
	n     int // occupied slots
	// fifo holds a bounded table's (max > 0) bindings in insertion order; once
	// the table is full it is a ring whose fifo[head] is the next victim.
	// Unbounded tables keep no queue.
	fifo []fifoKey
	head int
	max  int
}

// NewManager creates a cache manager. maxEntriesPerPred of 0 means
// unbounded tables.
func NewManager(enabled bool, maxEntriesPerPred int) *Manager {
	return &Manager{
		enabled:    enabled,
		maxEntries: maxEntriesPerPred,
		caches:     make(map[string]*cache),
	}
}

// newCache builds one owner's table: striped when unbounded, single-shard
// FIFO when bounded.
func newCache(maxEntries int) *cache {
	n := stripes
	if maxEntries > 0 {
		n = 1
	}
	c := &cache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		c.shards[i].max = maxEntries
	}
	return c
}

// shardOf is the index of the shard of the binding with hash h.
func (c *cache) shardOf(h uint64) int { return int(h >> (64 - stripeBits) & uint64(len(c.shards)-1)) }

// find returns the slot holding key, or the empty slot its probe ended on
// (none in a table not yet allocated). Generic over the key's
// representation so the batched paths compare their raw encodings in place
// (converting a []byte to string for an argument copies). Small enough to
// inline into GetBatch's loop.
func find[K string | []byte](slots []slot, h uint64, key K) (uint64, bool) {
	if len(slots) == 0 {
		return 0, false
	}
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := &slots[i]
		if s.res == triEmpty {
			return i, false
		}
		if s.hash == h && s.key == string(key) {
			return i, true
		}
	}
}

// store records one binding in the shard; the caller holds the shard lock.
// Updating a binding neither evicts nor moves it in the FIFO; a new binding
// in a full bounded table first evicts the oldest.
func store[K string | []byte](s *cacheShard, h uint64, key K, r tri) {
	if i, ok := find(s.slots, h, key); ok {
		s.slots[i].res = r
		return
	}
	k := string(key)
	if s.max > 0 {
		if s.n == s.max {
			victim := &s.fifo[s.head]
			s.remove(victim.hash, victim.key)
			*victim = fifoKey{h, k}
			s.head = (s.head + 1) % s.max
		} else {
			s.fifo = append(s.fifo, fifoKey{h, k})
		}
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	i, _ := find(s.slots, h, k)
	s.slots[i] = slot{hash: h, key: k, res: r}
	s.n++
}

// grow doubles the table (from 8 slots), re-placing each entry by its stored
// hash: no key is hashed again.
func (s *cacheShard) grow() {
	old := s.slots
	s.slots = make([]slot, max(8, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, e := range old {
		if e.res == triEmpty {
			continue
		}
		i := e.hash & mask
		for s.slots[i].res != triEmpty {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// remove deletes key from the shard by backward shift: each later entry of
// the probe run whose home slot does not lie between the hole and itself
// moves into the hole, so every remaining entry stays reachable from its
// home without tombstones.
func (s *cacheShard) remove(h uint64, key string) {
	i, ok := find(s.slots, h, key)
	if !ok {
		return
	}
	mask := uint64(len(s.slots) - 1)
	for j := (i + 1) & mask; s.slots[j].res != triEmpty; j = (j + 1) & mask {
		if (j-s.slots[j].hash)&mask >= (j-i)&mask {
			s.slots[i] = s.slots[j]
			i = j
		}
	}
	s.slots[i] = slot{}
	s.n--
}

// Owner computes the cache-table identifier for a predicate: its ID. The
// whole predicate's result is cached per binding (Montage, §5.1), so two
// predicates calling the same function never share a table, and funcName
// does not enter the identifier.
func (m *Manager) Owner(predID int, funcName string) string {
	return "p:" + strconv.Itoa(predID)
}

// Enabled reports whether caching is on.
func (m *Manager) Enabled() bool { return m != nil && m.enabled }

// Key encodes an argument binding into a cache key.
func Key(args []expr.Value) string {
	var buf []byte
	for _, a := range args {
		buf = a.AppendKey(buf)
	}
	return string(buf)
}

// table returns the owner's cache, creating it when create is set.
func (m *Manager) table(owner string, create bool) *cache {
	m.mu.RLock()
	c := m.caches[owner]
	m.mu.RUnlock()
	if c != nil || !create {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.caches[owner]; c == nil {
		c = newCache(m.maxEntries)
		m.caches[owner] = c
	}
	return c
}

// Lookup returns the cached tri-state result of the owner's table on the
// given binding (owner comes from Owner).
func (m *Manager) Lookup(owner string, key string) (expr.Value, bool) {
	if !m.Enabled() {
		return expr.Null, false
	}
	r := triEmpty
	if c := m.table(owner, false); c != nil {
		h := maphash.String(seed, key)
		s := &c.shards[c.shardOf(h)]
		s.mu.Lock()
		if i, ok := find(s.slots, h, key); ok {
			r = s.slots[i].res
		}
		s.mu.Unlock()
	}
	if r == triEmpty {
		m.misses.Add(1)
		return expr.Null, false
	}
	m.hits.Add(1)
	return r.value(), true
}

// Store records the predicate's result for a binding. When the table is
// bounded and full, the oldest binding is evicted (FIFO).
func (m *Manager) Store(owner string, key string, v expr.Value) {
	if !m.Enabled() {
		return
	}
	c := m.table(owner, true)
	h := maphash.String(seed, key)
	s := &c.shards[c.shardOf(h)]
	s.mu.Lock()
	defer s.mu.Unlock()
	store(s, h, key, triOf(v))
}

// Batch lookup states: the outcome of one binding in a GetBatch call.
const (
	// BatchMiss marks a binding absent from the cache; the caller must
	// evaluate it and hand the result back through PutBatch.
	BatchMiss uint8 = iota
	// BatchHit marks a cached binding; Val carries the stored result.
	BatchHit
	// BatchDup marks a binding equal to an earlier BatchMiss in the same
	// batch (index in Dup). Under tuple-at-a-time execution the earlier
	// row's store would have completed before this row's lookup, so the
	// duplicate counts as a hit and takes the earlier row's result.
	BatchDup
)

// BatchEntry is one binding's outcome in a GetBatch call.
type BatchEntry struct {
	// Val is the cached result for BatchHit entries (and is filled in by
	// the caller for misses before PutBatch).
	Val expr.Value
	// State is BatchMiss, BatchHit, or BatchDup.
	State uint8
	// Dup is the index of the earlier miss sharing this binding
	// (BatchDup only; -1 otherwise).
	Dup int32
	// hash is the binding's hash, computed once by GetBatch and used again
	// by PutBatch.
	hash uint64
	// link threads the batch into one index-ordered list per shard, then,
	// once the walk has passed the entry, a miss into its duplicate bucket's
	// chain; bucket heads that chain (both -1 at the end).
	link, bucket int32
}

// Batchable reports whether the batched lookup path may be used: only
// enabled managers with unbounded tables qualify. Bounded tables evict in
// FIFO order, which is sensitive to the exact interleaving of lookups and
// stores, so batching them could change hit patterns versus
// tuple-at-a-time execution; unbounded tables are monotone (a cached
// binding stays cached), making GetBatch/PutBatch exactly equivalent to
// the sequential per-row protocol.
func (m *Manager) Batchable() bool { return m.Enabled() && m.maxEntries == 0 }

// GetBatch looks up a batch of bindings, hashing each binding once and
// taking each shard lock at most once per call instead of once per row.
// Semantics are as-if-sequential: out[i] reports what the i'th Lookup of a
// tuple-at-a-time loop would have seen, assuming each miss is stored before
// the next lookup — duplicates of an earlier miss therefore report BatchDup
// (counted as hits). Keys are raw binding encodings; GetBatch does not
// retain them, and allocates nothing.
//
// The batch is its own scratch space. Each shard's entries are walked in
// index order, and equal bindings share a shard, so the first occurrence of
// a missing binding is met before its duplicates. The misses found so far
// form a chained hash table over out itself: one bucket per binding, bucket
// b's chain starting at out[b].bucket.
func (m *Manager) GetBatch(owner string, keys [][]byte, out []BatchEntry) {
	var c *cache
	if m.Enabled() {
		c = m.table(owner, false)
	}
	out = out[:len(keys)]
	var head, tail [stripes]int32 // per shard: first entry + 1 (0 = none, as all are with no table), last entry
	for i, key := range keys {
		h := maphash.Bytes(seed, key)
		e := &out[i]
		e.hash, e.link, e.bucket = h, -1, -1
		if c == nil {
			continue
		}
		si := c.shardOf(h)
		if head[si] == 0 {
			head[si] = int32(i) + 1
		} else {
			out[tail[si]].link = int32(i)
		}
		tail[si] = int32(i)
	}
	// dup settles entry i, absent from the table: a duplicate of an earlier
	// miss (true), or a miss that joins its bucket's chain.
	dup := func(i int32) bool {
		e := &out[i]
		b := &out[uint64(uint32(e.hash))*uint64(len(out))>>32].bucket
		for j := *b; j >= 0; j = out[j].link {
			if out[j].hash == e.hash && string(keys[j]) == string(keys[i]) {
				e.State, e.Dup = BatchDup, j
				return true
			}
		}
		e.State, e.Dup, e.link, *b = BatchMiss, -1, *b, i
		return false
	}
	var hits, misses int64
	if c == nil {
		for i := range keys {
			if dup(int32(i)) {
				hits++
			} else {
				misses++
			}
		}
	}
	for si, first := range head {
		if first == 0 {
			continue
		}
		s := &c.shards[si]
		s.mu.Lock()
		for i := first - 1; i >= 0; {
			e := &out[i]
			next := e.link // a miss's link moves to its bucket's chain
			if j, ok := find(s.slots, e.hash, keys[i]); ok {
				e.Val, e.State, e.Dup = s.slots[j].res.value(), BatchHit, -1
				hits++
			} else if dup(i) {
				hits++
			} else {
				misses++
			}
			i = next
		}
		s.mu.Unlock()
	}
	m.hits.Add(hits)
	m.misses.Add(misses)
}

// PutBatch stores the results of a GetBatch's misses (entries whose State
// is BatchMiss, with Val filled in by the caller) in batch order, under the
// hashes GetBatch computed. Every miss was one invocation of the predicate,
// which dwarfs taking its shard's lock. Hits and duplicates are skipped;
// entries are left as they were found.
func (m *Manager) PutBatch(owner string, keys [][]byte, entries []BatchEntry) {
	if !m.Enabled() {
		return
	}
	c := m.table(owner, true)
	for i := range entries {
		e := &entries[i]
		if e.State != BatchMiss {
			continue
		}
		s := &c.shards[c.shardOf(e.hash)]
		s.mu.Lock()
		store(s, e.hash, keys[i], triOf(e.Val))
		s.mu.Unlock()
	}
}

// AddHits counts n lookups a caller answered itself, from a memo of
// bindings it has seen in the table, as the hits the table would have
// returned. Only an unbounded table (Batchable) may be memoized: it is
// monotone, so a binding seen there once is there still.
func (m *Manager) AddHits(n int) { m.hits.Add(int64(n)) }

// Stats returns (hits, misses, totalEntries).
func (m *Manager) Stats() (hits, misses int64, entries int) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, c := range m.caches {
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			entries += s.n
			s.mu.Unlock()
		}
	}
	return m.hits.Load(), m.misses.Load(), entries
}

// Reset clears all cached entries and counters (between queries).
func (m *Manager) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.caches = make(map[string]*cache)
	m.hits.Store(0)
	m.misses.Store(0)
}
