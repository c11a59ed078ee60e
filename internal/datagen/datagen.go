// Package datagen builds the reproduction of the paper's benchmark database:
// the Hong–Stonebraker schema with cardinalities scaled up by 10 (§2).
// Relations t1 … t10 hold N×10,000 tuples of exactly 100 bytes. Attribute
// names follow the paper's convention: a numeric suffix gives the
// approximate number of times each value repeats, and names starting with
// 'u' are unindexed while all others carry B-tree indices.
//
// All domains are 0-based, so values(tM.c) ⊆ values(tN.c) for M ≤ N; this
// containment produces the join-selectivity contrast between Query 1 (t3⋈t9,
// selectivity 1/3 over t9) and Query 2 (t10⋈t9, selectivity exactly 1 over
// t9) that the paper's Figures 3 and 4 hinge on.
package datagen

import (
	"fmt"
	"strings"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/storage"
)

// BaseCard is the unscaled cardinality unit: |tN| = N × BaseCard.
const BaseCard = 10000

// DupFactors lists the duplication factors of the generated attributes.
// Columns: aK indexed, uK unindexed; ua1 is the paper's "ua"/"ua1" unique
// unindexed attribute.
var DupFactors = []struct {
	Name    string
	Dup     int64
	Indexed bool
}{
	{"a1", 1, true},
	{"a10", 10, true},
	{"a100", 100, true},
	{"ua1", 1, false},
	{"u10", 10, false},
	{"u20", 20, false},
	{"u100", 100, false},
}

// FillerLen pads tuples to exactly 100 bytes:
// 7 int columns × 9 bytes + (1 + FillerLen) = 100.
const FillerLen = 36

// Config controls database generation.
type Config struct {
	// Scale multiplies every table's cardinality (1.0 = the paper's 110 MB
	// database; tests use much smaller scales — relative results are stable).
	Scale float64
	// Tables selects which tN to build (nil = all of t1 … t10).
	Tables []int
	// PoolPages sets the buffer pool size; 0 derives it from the data size
	// (≈1/8 of the data pages, min 64), echoing the paper's 32 MB host
	// against a 110 MB database.
	PoolPages int
	// PoolShards stripes the buffer pool into independently locked shards
	// for parallel execution (0 or 1 = the single classic LRU pool).
	PoolShards int
	// Seed perturbs the value permutations.
	Seed int64
}

// DB bundles the storage substrate and catalog of a generated database.
type DB struct {
	Disk *storage.Disk
	Pool *storage.BufferPool
	Cat  *catalog.Catalog
}

// Build generates the benchmark database.
func Build(cfg Config) (*DB, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	tables := cfg.Tables
	if tables == nil {
		tables = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}

	// Estimate total pages to size the pool.
	var totalTuples int64
	for _, n := range tables {
		totalTuples += scaledCard(n, cfg.Scale)
	}
	perPage := int64((storage.PageSize - 8) / (100 + 4))
	pool := cfg.PoolPages
	if pool == 0 {
		pool = int(totalTuples/perPage/8) + 64
	}

	acct := &storage.Accountant{}
	disk := storage.NewDisk(acct)
	db := &DB{
		Disk: disk,
		Pool: storage.NewShardedBufferPool(disk, pool, cfg.PoolShards),
		Cat:  catalog.New(),
	}
	if err := RegisterStandardFuncs(db.Cat); err != nil {
		return nil, err
	}
	for _, n := range tables {
		if n < 1 {
			return nil, fmt.Errorf("datagen: bad table number %d", n)
		}
		if err := buildTable(db, n, cfg); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func scaledCard(n int, scale float64) int64 {
	c := int64(float64(n) * float64(BaseCard) * scale)
	if c < 10 {
		c = 10
	}
	return c
}

// buildTable creates and loads tN.
func buildTable(db *DB, n int, cfg Config) error {
	card := scaledCard(n, cfg.Scale)
	name := fmt.Sprintf("t%d", n)

	cols := make([]catalog.Column, 0, len(DupFactors)+1)
	for _, d := range DupFactors {
		distinct := card / d.Dup
		if distinct < 1 {
			distinct = 1
		}
		cols = append(cols, catalog.Column{
			Name: d.Name, Type: expr.TInt,
			Distinct: distinct, Min: 0, Max: distinct - 1,
		})
	}
	cols = append(cols, catalog.Column{Name: "str", Type: expr.TString, FixedLen: FillerLen})

	codec, err := catalog.NewRowCodec(cols)
	if err != nil {
		return err
	}
	tab := &catalog.Table{
		Name:       name,
		Columns:    cols,
		Heap:       storage.NewHeapFile(db.Pool),
		Indexes:    make(map[string]*btree.Tree),
		Card:       card,
		TupleBytes: codec.Width(),
		Codec:      codec,
	}

	perms := make([]permutation, len(DupFactors))
	for i := range DupFactors {
		perms[i] = newPermutation(card, cfg.Seed+int64(n*31+i*7))
	}
	pairs := make([][]btree.Entry, len(DupFactors)) // an index's pairs, for btree.Deferred
	for ci, d := range DupFactors {
		if d.Indexed {
			pairs[ci] = make([]btree.Entry, 0, card)
		}
	}
	row := make(expr.Row, len(cols))
	row[len(cols)-1] = expr.S(strings.Repeat("x", FillerLen))
	rec := make([]byte, codec.Width())
	app := tab.Heap.Append()
	defer app.Close()
	for i := int64(0); i < card; i++ {
		for ci, d := range DupFactors {
			row[ci] = expr.I(perms[ci].apply(i) / d.Dup)
		}
		if err := codec.EncodeInto(rec, row); err != nil {
			return err
		}
		tid, err := app.Add(rec)
		if err != nil {
			return err
		}
		for ci := range pairs {
			if pairs[ci] != nil {
				pairs[ci] = append(pairs[ci], btree.Entry{Key: row[ci].I, TID: tid})
			}
		}
	}
	for ci, d := range DupFactors {
		if d.Indexed {
			tab.Indexes[d.Name] = btree.Deferred(db.Disk.Accountant(), pairs[ci])
		}
	}
	if err := db.Cat.AddTable(tab); err != nil {
		return err
	}
	// Loading I/O is not part of any measured query.
	db.Disk.Accountant().Reset()
	db.Pool.ResetCounters()
	return nil
}

// permutation is a cheap deterministic bijection on [0, n): i ↦ (a·i+b) mod n
// with gcd(a, n) = 1. It spreads each duplication class evenly through the
// heap, which is all the benchmark queries require.
type permutation struct {
	a, b, n int64
}

func newPermutation(n, seed int64) permutation {
	if n <= 1 {
		return permutation{a: 1, b: 0, n: max(n, 1)}
	}
	a := (n*618)/1000 | 1
	for gcd(a, n) != 1 {
		a += 2
	}
	b := (seed*2654435761 + 12345) % n
	if b < 0 {
		b += n
	}
	return permutation{a: a, b: b, n: n}
}

func (p permutation) apply(i int64) int64 { return (p.a*i%p.n + p.b) % p.n }

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RegisterStandardFuncs registers the benchmark functions the paper's
// queries call: costlyN (per-call cost N random I/Os, selectivity 0.5), the
// two-argument costlyNjoin, and Query 5's selective100 — all deterministic
// and cacheable.
func RegisterStandardFuncs(cat *catalog.Catalog) error {
	for _, c := range []float64{1, 10, 100, 1000} {
		f := expr.NewCostly(fmt.Sprintf("costly%d", int(c)), 1, c, 0.5, int64ToSeed(int64(c)))
		if err := cat.RegisterFunc(f); err != nil {
			return err
		}
	}
	// Two-argument variants act as expensive join predicates (Query 5).
	for _, c := range []float64{10, 100} {
		f := expr.NewCostly(fmt.Sprintf("costly%djoin", int(c)), 2, c, 0.1, int64ToSeed(int64(c)+5000))
		if err := cat.RegisterFunc(f); err != nil {
			return err
		}
	}
	// selective100 is Query 5's expensive, highly selective predicate
	// (100 random I/Os per call, selectivity 0.1).
	return cat.RegisterFunc(&expr.FuncDef{Name: "selective100", Arity: 1, Cost: 100, Selectivity: 0.1,
		Cacheable: true, Eval: expr.BoolStub(0.1, 424242)})
}

func int64ToSeed(x int64) uint64 { return uint64(x)*0x9e3779b9 + 0x1234567 }

// ComputeStats rescans a user-created table and fills per-column Distinct,
// Min and Max statistics (examples use this after ad-hoc loads).
func ComputeStats(db *DB, name string) error {
	tab, err := db.Cat.Table(name)
	if err != nil {
		return err
	}
	type colStat struct {
		distinct map[int64]struct{}
		values   []int64
		min, max int64
		seen     bool
	}
	stats := make([]colStat, len(tab.Columns))
	for i := range stats {
		stats[i].distinct = make(map[int64]struct{})
	}
	it := tab.Heap.Scan()
	defer it.Close()
	var card int64
	for {
		rec, _, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		card++
		row, err := tab.Codec.Decode(rec)
		if err != nil {
			return err
		}
		for i, v := range row {
			if v.Kind != expr.TInt {
				continue
			}
			st := &stats[i]
			st.distinct[v.I] = struct{}{}
			st.values = append(st.values, v.I)
			if !st.seen || v.I < st.min {
				st.min = v.I
			}
			if !st.seen || v.I > st.max {
				st.max = v.I
			}
			st.seen = true
		}
	}
	tab.Card = card
	for i := range tab.Columns {
		if tab.Columns[i].Type == expr.TInt && stats[i].seen {
			tab.Columns[i].Distinct = int64(len(stats[i].distinct))
			tab.Columns[i].Min = stats[i].min
			tab.Columns[i].Max = stats[i].max
			tab.Columns[i].Hist = catalog.BuildHistogram(stats[i].values, 32)
		}
	}
	return nil
}
