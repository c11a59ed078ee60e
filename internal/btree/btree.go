// Package btree implements a B+tree index mapping int64 keys to tuple
// identifiers, supporting duplicates, equality probes, and range scans.
//
// Nodes are sized so that one node corresponds to roughly one disk page;
// probes charge random I/Os to a storage.Accountant under the standard
// assumption that the root and internal levels stay cached (the paper's cost
// model prices an index probe at "typically 3 I/Os or less"; we charge one
// random I/O per leaf visited, and heap fetches for matching tuples are
// charged separately by the buffer pool).
package btree

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"predplace/internal/storage"
)

// order is the maximum number of keys per node (fanout-1). 256 keys of
// 8 bytes plus child pointers approximates an 8 KiB page.
const order = 256

// Entry is one (key, tid) pair stored in a leaf.
type Entry struct {
	Key int64
	TID storage.TID
}

type node struct {
	leaf     bool
	keys     []int64
	children []*node // internal nodes: len(keys)+1 children
	entries  []Entry // leaf nodes: entries sorted by (Key, insertion order)
	next     *node   // leaf chain for range scans
}

// Tree is a B+tree index. Not safe for concurrent mutation; concurrent
// read-only probes are safe after loading, matching the read-only benchmark
// workloads — a Deferred tree's first probes included.
type Tree struct {
	root   *node
	height int
	size   int
	acct   *storage.Accountant
	src    *source // a Deferred tree's pairs; nil for a New one
}

// source holds the load-order pairs of a Deferred tree until its first read
// or write inserts them.
type source struct {
	once  sync.Once
	pairs []Entry
}

// builds counts the Deferred trees built so far.
var builds atomic.Int64

// New creates an empty tree charging probe I/O to acct (nil = no charging).
func New(acct *storage.Accountant) *Tree {
	return &Tree{root: &node{leaf: true}, height: 1, acct: acct}
}

// Deferred returns a tree that inserts pairs, in their order, through
// Insert's own path on its first read or write (WithAcct included): node for
// node the tree a loop of Inserts builds, charging nothing, as Insert does
// not. One caller builds; concurrent first readers wait for it.
func Deferred(acct *storage.Accountant, pairs []Entry) *Tree {
	return &Tree{root: &node{leaf: true}, height: 1, acct: acct, src: &source{pairs: pairs}}
}

// Builds returns how many Deferred trees have been built in this process.
func Builds() int64 { return builds.Load() }

// load inserts a Deferred tree's pairs the first time any caller asks.
func (t *Tree) load() {
	if s := t.src; s != nil {
		s.once.Do(func() {
			for _, e := range s.pairs {
				t.put(e.Key, e.TID)
			}
			s.pairs = nil
			builds.Add(1)
		})
	}
}

// WithAcct returns a read-only view of the tree whose probes charge into
// acct instead of the tree's own accountant — how a query attributes index
// probe I/O to its private ledger while sharing the loaded tree (a Deferred
// tree is built first). The view shares all nodes; it must not be used to
// mutate the tree while other probes are in flight (the Tree's contract).
func (t *Tree) WithAcct(acct *storage.Accountant) *Tree {
	t.load()
	if acct == nil {
		return t
	}
	v := *t
	v.acct = acct
	return &v
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { t.load(); return t.size }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree) Height() int { t.load(); return t.height }

func (t *Tree) chargeLeaf() {
	if t.acct != nil {
		t.acct.RecordRandRead()
	}
}

// Insert adds (key, tid). Duplicate keys are allowed.
func (t *Tree) Insert(key int64, tid storage.TID) {
	t.load()
	t.put(key, tid)
}

// put is Insert without the load: the one path an entry enters a tree by.
func (t *Tree) put(key int64, tid storage.TID) {
	t.size++
	newChild, splitKey := t.insert(t.root, key, tid)
	if newChild != nil {
		root := &node{
			keys:     []int64{splitKey},
			children: []*node{t.root, newChild},
		}
		t.root = root
		t.height++
	}
}

// insert descends into n; if n splits, returns the new right sibling and the
// key separating it from n.
func (t *Tree) insert(n *node, key int64, tid storage.TID) (*node, int64) {
	if n.leaf {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].Key > key })
		n.entries = append(n.entries, Entry{})
		copy(n.entries[i+1:], n.entries[i:])
		n.entries[i] = Entry{Key: key, TID: tid}
		if len(n.entries) <= order {
			return nil, 0
		}
		mid := len(n.entries) / 2
		right := &node{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...), next: n.next}
		n.entries = n.entries[:mid]
		n.next = right
		return right, right.entries[0].Key
	}
	i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
	newChild, splitKey := t.insert(n.children[i], key, tid)
	if newChild == nil {
		return nil, 0
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) <= order {
		return nil, 0
	}
	mid := len(n.keys) / 2
	right := &node{
		keys:     append([]int64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	sk := n.keys[mid]
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return right, sk
}

// findLeaf returns the leftmost leaf that may contain key: equal separators
// route left, because a duplicate run can straddle the split point.
func (t *Tree) findLeaf(key int64) *node {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key <= n.keys[i] })
		n = n.children[i]
	}
	return n
}

// Probe returns the TIDs of all entries with exactly the given key, charging
// one random I/O per leaf visited.
func (t *Tree) Probe(key int64) []storage.TID {
	t.load()
	var out []storage.TID
	n := t.findLeaf(key)
	t.chargeLeaf()
	for n != nil {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].Key >= key })
		for ; i < len(n.entries); i++ {
			if n.entries[i].Key > key {
				return out
			}
			out = append(out, n.entries[i].TID)
		}
		n = n.next
		if n != nil {
			t.chargeLeaf()
		}
	}
	return out
}

// Range returns an iterator over entries with lo <= key <= hi in key order.
func (t *Tree) Range(lo, hi int64) *Iter {
	t.load()
	n := t.findLeaf(lo)
	t.chargeLeaf()
	i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].Key >= lo })
	return &Iter{t: t, n: n, i: i, hi: hi}
}

// ScanAll returns an iterator over every entry in key order.
func (t *Tree) ScanAll() *Iter {
	t.load()
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	t.chargeLeaf()
	return &Iter{t: t, n: n, i: 0, hi: int64(^uint64(0) >> 1)}
}

// Iter walks leaf entries in key order up to an inclusive upper bound.
type Iter struct {
	t  *Tree
	n  *node
	i  int
	hi int64
}

// Next returns the next entry, or ok=false at the end of the range.
func (it *Iter) Next() (Entry, bool) {
	for it.n != nil {
		if it.i < len(it.n.entries) {
			e := it.n.entries[it.i]
			if e.Key > it.hi {
				it.n = nil
				return Entry{}, false
			}
			it.i++
			return e, true
		}
		it.n = it.n.next
		it.i = 0
		if it.n != nil {
			it.t.chargeLeaf()
		}
	}
	return Entry{}, false
}

// check validates B+tree invariants; used by tests.
func (t *Tree) check() error {
	return t.checkNode(t.root, nil, nil, t.height)
}

func (t *Tree) checkNode(n *node, lo, hi *int64, depth int) error {
	if n.leaf {
		if depth != 1 {
			return fmt.Errorf("btree: leaves at unequal depth")
		}
		for i, e := range n.entries {
			if i > 0 && n.entries[i-1].Key > e.Key {
				return fmt.Errorf("btree: leaf keys out of order")
			}
			if lo != nil && e.Key < *lo {
				return fmt.Errorf("btree: key %d below bound %d", e.Key, *lo)
			}
			if hi != nil && e.Key > *hi { // equality allowed: duplicate runs may straddle separators

				return fmt.Errorf("btree: key %d above bound %d", e.Key, *hi)
			}
		}
		return nil
	}
	if len(n.children) != len(n.keys)+1 {
		return fmt.Errorf("btree: child/key count mismatch")
	}
	for i := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = &n.keys[i-1]
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		}
		if err := t.checkNode(n.children[i], clo, chi, depth-1); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes one (key, tid) entry, returning whether it was found. The
// tree uses lazy deletion (no rebalancing): underfull leaves are tolerated,
// which keeps reads correct and suits the benchmark's read-mostly workloads.
func (t *Tree) Delete(key int64, tid storage.TID) bool {
	t.load()
	n := t.findLeaf(key)
	for n != nil {
		i := sort.Search(len(n.entries), func(i int) bool { return n.entries[i].Key >= key })
		for ; i < len(n.entries); i++ {
			if n.entries[i].Key > key {
				return false
			}
			if n.entries[i].TID == tid {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				t.size--
				return true
			}
		}
		n = n.next
	}
	return false
}
