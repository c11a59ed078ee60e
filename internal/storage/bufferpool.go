package storage

import (
	"fmt"
	"sync"
)

// BufferPool caches disk pages with LRU replacement. Page fetches that hit
// the pool cost nothing; misses incur a physical read (and a writeback if the
// victim is dirty). Pin/Unpin follow the classic protocol: a pinned page is
// never evicted.
//
// The pool is divided into independent shards selected by a hash of the
// (file, page) key, each with its own lock, frame table, and LRU ring, so
// parallel workers fetching different pages rarely contend. A single-shard
// pool (the default, see NewBufferPool) behaves exactly like the classic
// global-LRU pool. Concurrent misses on the same page are deduplicated:
// one goroutine performs the physical read while the rest wait and share
// the result, so a page is never read (or charged) twice by a race.
type BufferPool struct {
	disk     *Disk
	capacity int
	shards   []poolShard
}

// poolShard is one lock's share of the pool. A miss allocates nothing once
// the shard is full: it reuses the frame of the page it evicts, finds frames
// through an open-addressed table that never grows, orders them on an
// intrusive LRU ring, and keeps the read in flight on the frame itself.
type poolShard struct {
	mu       sync.Mutex
	capacity int
	// table holds the resident frames by key (linear probing from keySlot, at
	// most half full, deletion by backward shift); n counts them, frames
	// whose read is in flight included.
	table []*frame
	n     int
	// lru is the sentinel of the ring of resident frames: lru.next is the
	// most recently used, lru.prev the eviction candidate.
	lru frame
	// landed is broadcast whenever an in-flight read ends, for the
	// goroutines waiting on one.
	landed sync.Cond

	hits   int64
	misses int64
}

type frameKey struct {
	file FileID
	page PageID
}

// frame is one resident page. While its read is in flight (loading) it is
// pinned by its reader and by every goroutine waiting on that read, which
// err then tells how it ended.
type frame struct {
	key        frameKey
	pg         *Page
	pins       int
	dirty      bool
	loading    bool
	err        error
	prev, next *frame
}

// NewBufferPool creates a single-shard pool of the given capacity (in
// pages) over disk — the classic global-LRU pool.
func NewBufferPool(disk *Disk, capacity int) *BufferPool {
	return NewShardedBufferPool(disk, capacity, 1)
}

// NewShardedBufferPool creates a pool of the given total capacity split
// across the given number of hash-selected shards. More shards reduce lock
// contention under parallel execution; shard capacities sum to capacity
// (each at least one page).
func NewShardedBufferPool(disk *Disk, capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	bp := &BufferPool{disk: disk, capacity: capacity, shards: make([]poolShard, shards)}
	base, extra := capacity/shards, capacity%shards
	for i := range bp.shards {
		s := &bp.shards[i]
		s.capacity = base
		if i < extra {
			s.capacity++
		}
		size := 2
		for size < 2*s.capacity {
			size *= 2
		}
		s.table = make([]*frame, size)
		s.lru.prev, s.lru.next = &s.lru, &s.lru
		s.landed.L = &s.mu
	}
	return bp
}

// shardFor selects the shard owning key.
func (bp *BufferPool) shardFor(key frameKey) *poolShard {
	return &bp.shards[pageShard(key, len(bp.shards))]
}

// pageShard maps a page key to one of n shards (splitmix64-style hash so
// adjacent pages of one file spread across shards). Shared by the pool and
// the per-query IOTracker simulation, which must agree on shard geometry.
func pageShard(key frameKey, n int) int {
	if n == 1 {
		return 0
	}
	return int(keyHash(key) % uint64(n))
}

// keyHash mixes a page key with splitmix64's finalizer.
func keyHash(key frameKey) uint64 {
	x := uint64(key.file)<<32 | uint64(key.page)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ x>>31
}

// keySlot is key's home slot in the shard's table: the hash's high half,
// which the shard choice (its low bits, modulo the shard count) leaves alone.
func (s *poolShard) keySlot(key frameKey) int {
	return int(keyHash(key)>>32) & (len(s.table) - 1)
}

// find returns key's frame, nil if it is not resident, and the slot it is
// in — or, when absent, the free slot an insert of key takes.
func (s *poolShard) find(key frameKey) (*frame, int) {
	mask := len(s.table) - 1
	for i := s.keySlot(key); ; i = (i + 1) & mask {
		if fr := s.table[i]; fr == nil || fr.key == key {
			return fr, i
		}
	}
}

// insert makes fr, whose key is not resident, resident and most recently
// used.
func (s *poolShard) insert(fr *frame) {
	_, i := s.find(fr.key)
	s.table[i] = fr
	s.n++
	fr.prev, fr.next = &s.lru, s.lru.next
	fr.next.prev, s.lru.next = fr, fr
}

// remove takes the resident frame fr out of the table and the ring, closing
// the gap it leaves in its probe run by shifting later entries back.
func (s *poolShard) remove(fr *frame) {
	cur, i := s.find(fr.key)
	if cur != fr {
		return
	}
	mask := len(s.table) - 1
	for j := (i + 1) & mask; s.table[j] != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i unless its home slot lies
		// after i on the way to j.
		if (j-s.keySlot(s.table[j].key))&mask >= (j-i)&mask {
			s.table[i], i = s.table[j], j
		}
	}
	s.table[i] = nil
	s.n--
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

// touch makes the resident frame fr the most recently used.
func (s *poolShard) touch(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = &s.lru, s.lru.next
	fr.next.prev, s.lru.next = fr, fr
}

// Capacity returns the total pool size in pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Shards returns the number of lock shards.
func (bp *BufferPool) Shards() int { return len(bp.shards) }

// PinnedFrames returns the number of resident frames with at least one pin —
// the leak-audit introspection: after any query teardown (success, DNF,
// cancellation, or injected fault) it must be zero.
func (bp *BufferPool) PinnedFrames() int {
	n := 0
	for _, fr := range bp.Resident() {
		if fr.Pins > 0 {
			n++
		}
	}
	return n
}

// FrameState is one resident page as Resident reports it.
type FrameState struct {
	File  FileID
	Page  PageID
	Pins  int
	Dirty bool
}

// Resident lists the resident pages shard by shard, most recently used first.
func (bp *BufferPool) Resident() []FrameState {
	var out []FrameState
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for fr := s.lru.next; fr != &s.lru; fr = fr.next {
			out = append(out, FrameState{fr.key.file, fr.key.page, fr.pins, fr.dirty})
		}
		s.mu.Unlock()
	}
	return out
}

// HitRate returns (hits, misses) since creation or the last ResetCounters.
// A goroutine that waits out another's in-flight read of the same page
// counts as a hit (it cost no physical I/O).
func (bp *BufferPool) HitRate() (hits, misses int64) {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// ResetCounters zeroes the hit/miss counters (not the cached contents).
func (bp *BufferPool) ResetCounters() {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		s.hits, s.misses = 0, 0
		s.mu.Unlock()
	}
}

// Fetch pins page p of file f, reading it from disk on a miss. Concurrent
// misses on the same page issue a single physical read: the first registers
// the frame and reads, the others pin the frame and wait for the read to
// land. Once the shard is full a miss allocates nothing.
func (bp *BufferPool) Fetch(f FileID, p PageID) (*Page, error) {
	key := frameKey{f, p}
	s := bp.shardFor(key)
	s.mu.Lock()
	if fr, _ := s.find(key); fr != nil {
		fr.pins++
		for fr.loading {
			// Another goroutine is reading this page; share its read.
			s.landed.Wait()
		}
		if err := fr.err; err != nil {
			fr.pins--
			s.mu.Unlock()
			return nil, err
		}
		s.hits++
		s.touch(fr)
		pg := fr.pg
		s.mu.Unlock()
		return pg, nil
	}
	s.misses++
	fr, err := s.evictLocked(bp.disk)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if fr == nil {
		fr = new(frame)
	}
	*fr = frame{key: key, pins: 1, loading: true}
	s.insert(fr)
	s.mu.Unlock()

	pg, err := bp.disk.ReadPage(f, p)

	s.mu.Lock()
	fr.pg, fr.err, fr.loading = pg, err, false
	if err != nil {
		// The waiters take the error; the next miss elects a new reader.
		fr.pins--
		s.remove(fr)
	}
	s.landed.Broadcast()
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return pg, nil
}

// evictLocked makes room for one more frame in the shard, writing back a
// dirty victim, and returns the victim's frame for reuse (nil when there was
// room). Caller holds the shard lock.
func (s *poolShard) evictLocked(disk *Disk) (*frame, error) {
	var victim *frame
	for s.n >= s.capacity {
		victim = s.lru.prev
		for victim != &s.lru && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == &s.lru {
			return nil, fmt.Errorf("storage: buffer pool exhausted (%d pages, all pinned)", s.capacity)
		}
		if victim.dirty {
			if err := disk.WritePage(victim.key.file, victim.key.page); err != nil {
				return nil, err
			}
		}
		s.remove(victim)
	}
	return victim, nil
}

// Unpin releases one pin on page p of file f; dirty marks the page modified.
func (bp *BufferPool) Unpin(f FileID, p PageID, dirty bool) {
	key := frameKey{f, p}
	s := bp.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, _ := s.find(key)
	if fr == nil || fr.pins == 0 {
		return
	}
	fr.pins--
	if dirty {
		fr.dirty = true
	}
}

// NewPage allocates a fresh page in file f, pins it, and returns it. The new
// page is resident and dirty; it is written back on eviction or FlushAll.
func (bp *BufferPool) NewPage(f FileID) (PageID, *Page, error) {
	pid, err := bp.disk.AllocPage(f)
	if err != nil {
		return 0, nil, err
	}
	key := frameKey{f, pid}
	s := bp.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := s.evictLocked(bp.disk)
	if err != nil {
		return 0, nil, err
	}
	if fr == nil {
		fr = new(frame)
	}
	// The freshly allocated page is already in the disk's array; register a
	// frame for it directly without charging a read (it was never on disk).
	pg, _ := bp.disk.peek(f, pid)
	*fr = frame{key: key, pg: pg, pins: 1, dirty: true}
	s.insert(fr)
	return pid, pg, nil
}

// FlushAll writes back every dirty frame and clears the pool (a page whose
// read is in flight stays, for its reader and waiters).
func (bp *BufferPool) FlushAll() error {
	return bp.drop(func(fr *frame) bool { return !fr.loading })
}

// EvictUnpinned writes back and drops every unpinned frame, leaving pinned
// frames resident. It exists so a query phase that scans tables outside the
// main plan (the predicate-transfer prepass) can return the pool to a
// deterministic cold state: whether a later scan's page access hits or
// misses must not depend on what the phase happened to leave cached, or the
// charged physical I/O would vary with executor mode and access order.
func (bp *BufferPool) EvictUnpinned() error {
	return bp.drop(func(fr *frame) bool { return fr.pins == 0 })
}

// drop writes back and removes every resident frame which says to.
func (bp *BufferPool) drop(which func(*frame) bool) error {
	for i := range bp.shards {
		s := &bp.shards[i]
		s.mu.Lock()
		for fr := s.lru.next; fr != &s.lru; {
			next := fr.next
			if which(fr) {
				if fr.dirty {
					if err := bp.disk.WritePage(fr.key.file, fr.key.page); err != nil {
						s.mu.Unlock()
						return err
					}
				}
				s.remove(fr)
			}
			fr = next
		}
		s.mu.Unlock()
	}
	return nil
}

// peek returns the page without charging an I/O; used only by NewPage for
// pages that were just allocated and have never been written to disk.
func (d *Disk) peek(f FileID, p PageID) (*Page, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages, ok := d.files[f]
	if !ok || int(p) >= len(pages) {
		return nil, false
	}
	return pages[p], true
}
