package datagen

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/expr"
	"predplace/internal/storage"
)

// refBuild is the per-tuple loader: each tuple encoded into a fresh record,
// put on its heap file by fetching and unpinning the tail page through the
// buffer pool (a new page when the record does not fit), and inserted into
// every index's tree at once. Build must leave exactly what it leaves.
func refBuild(t *testing.T, cfg Config) *DB {
	t.Helper()
	tables := cfg.Tables
	if tables == nil {
		tables = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	var totalTuples int64
	for _, n := range tables {
		totalTuples += scaledCard(n, cfg.Scale)
	}
	perPage := int64((storage.PageSize - 8) / (100 + 4))
	disk := storage.NewDisk(&storage.Accountant{})
	db := &DB{
		Disk: disk,
		Pool: storage.NewShardedBufferPool(disk, int(totalTuples/perPage/8)+64, 1),
		Cat:  catalog.New(),
	}
	if err := RegisterStandardFuncs(db.Cat); err != nil {
		t.Fatal(err)
	}
	for _, n := range tables {
		card := scaledCard(n, cfg.Scale)
		var cols []catalog.Column
		for _, d := range DupFactors {
			distinct := max(card/d.Dup, 1)
			cols = append(cols, catalog.Column{Name: d.Name, Type: expr.TInt, Distinct: distinct, Min: 0, Max: distinct - 1})
		}
		cols = append(cols, catalog.Column{Name: "str", Type: expr.TString, FixedLen: FillerLen})
		codec, err := catalog.NewRowCodec(cols)
		if err != nil {
			t.Fatal(err)
		}
		tab := &catalog.Table{
			Name: fmt.Sprintf("t%d", n), Columns: cols, Heap: storage.NewHeapFile(db.Pool),
			Indexes: map[string]*btree.Tree{}, Card: card, TupleBytes: codec.Width(), Codec: codec,
		}
		for _, d := range DupFactors {
			if d.Indexed {
				tab.Indexes[d.Name] = btree.New(disk.Accountant())
			}
		}
		perms := make([]permutation, len(DupFactors))
		for i := range DupFactors {
			perms[i] = newPermutation(card, cfg.Seed+int64(n*31+i*7))
		}
		row := make(expr.Row, len(cols))
		for i := int64(0); i < card; i++ {
			for ci, d := range DupFactors {
				row[ci] = expr.I(perms[ci].apply(i) / d.Dup)
			}
			row[len(cols)-1] = expr.S(string(bytes.Repeat([]byte("x"), FillerLen)))
			rec, err := codec.Encode(row)
			if err != nil {
				t.Fatal(err)
			}
			tid := insertPerTuple(t, db.Pool, tab.Heap, rec)
			for ci, d := range DupFactors {
				if d.Indexed {
					tab.Indexes[d.Name].Insert(row[ci].I, tid)
				}
			}
		}
		if err := db.Cat.AddTable(tab); err != nil {
			t.Fatal(err)
		}
		disk.Accountant().Reset()
		db.Pool.ResetCounters()
	}
	return db
}

// insertPerTuple puts rec on the last page of h if it fits and on a new page
// if not, pinning and unpinning the page around the one record.
func insertPerTuple(t *testing.T, bp *storage.BufferPool, h *storage.HeapFile, rec []byte) storage.TID {
	t.Helper()
	if n := h.NumPages(); n > 0 {
		last := storage.PageID(n - 1)
		pg, err := bp.Fetch(h.FileID(), last)
		if err != nil {
			t.Fatal(err)
		}
		if pg.HasSpace(len(rec)) {
			slot, err := pg.Insert(rec)
			if err != nil {
				t.Fatal(err)
			}
			bp.Unpin(h.FileID(), last, true)
			return storage.TID{Page: last, Slot: slot}
		}
		bp.Unpin(h.FileID(), last, false)
	}
	pid, pg, err := bp.NewPage(h.FileID())
	if err != nil {
		t.Fatal(err)
	}
	slot, err := pg.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(h.FileID(), pid, true)
	return storage.TID{Page: pid, Slot: slot}
}

// treeShape is what a tree shows through its API of its nodes: its entries in
// leaf order, how many sit in each leaf (a ScanAll charges one read per leaf
// it enters) and its height.
type treeShape struct {
	entries []btree.Entry
	leaves  []int
	height  int
}

func shapeOf(tr *btree.Tree) treeShape {
	var acct storage.Accountant
	s := treeShape{height: tr.Height()}
	it := tr.WithAcct(&acct).ScanAll()
	var reads int64
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		if r := acct.Stats().RandReads; r != reads {
			s.leaves, reads = append(s.leaves, 0), r
		}
		s.leaves[len(s.leaves)-1]++
		s.entries = append(s.entries, e)
	}
	return s
}

func (s treeShape) diff(o treeShape) error {
	if s.height != o.height || !slices.Equal(s.leaves, o.leaves) {
		return fmt.Errorf("height %d with %d leaves, want height %d with %d", s.height, len(s.leaves), o.height, len(o.leaves))
	}
	if !slices.Equal(s.entries, o.entries) {
		i := 0
		for i < min(len(s.entries), len(o.entries)) && s.entries[i] == o.entries[i] {
			i++
		}
		return fmt.Errorf("entry %d of %d differs (want %d)", i, len(s.entries), len(o.entries))
	}
	return nil
}

// TestLoaderMatchesPerTupleLoad holds Build to refBuild over scales, seeds
// and table sets: the same pages in every file byte for byte, the same card
// and column statistics, the same resident pool pages (pins, dirty bits, LRU
// order), and each index, after its first probe — or, for one index a table,
// an Insert into the tree while its pairs are still pending — node for node
// the eagerly built tree. No tree is built before that first use.
func TestLoaderMatchesPerTupleLoad(t *testing.T) {
	for _, scale := range []float64{0.01, 0.05, 0.3} {
		for _, seed := range []int64{0, 7} {
			for _, tables := range [][]int{nil, {3, 10}} {
				cfg := Config{Scale: scale, Seed: seed, Tables: tables}
				t.Run(fmt.Sprintf("scale%v/seed%d/tables%v", scale, seed, tables), func(t *testing.T) {
					b0 := btree.Builds()
					got, err := Build(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if n := btree.Builds() - b0; n != 0 {
						t.Fatalf("Build built %d trees", n)
					}
					want := refBuild(t, cfg)
					sameLoad(t, got, want)
				})
			}
		}
	}
}

func sameLoad(t *testing.T, got, want *DB) {
	t.Helper()
	if g, w := got.Pool.Resident(), want.Pool.Resident(); !slices.Equal(g, w) {
		t.Fatalf("resident pool pages differ: %d frames, want %d", len(g), len(w))
	}
	if g, w := got.Disk.Accountant().Stats(), want.Disk.Accountant().Stats(); g != w {
		t.Fatalf("accountant after load %+v, want %+v", g, w)
	}
	gt, wt := got.Cat.Tables(), want.Cat.Tables()
	if len(gt) != len(wt) {
		t.Fatalf("%d tables, want %d", len(gt), len(wt))
	}
	for i, tab := range gt {
		ref := wt[i]
		if tab.Name != ref.Name || tab.Card != ref.Card || tab.TupleBytes != ref.TupleBytes ||
			!reflect.DeepEqual(tab.Columns, ref.Columns) {
			t.Fatalf("table %s: catalog entry differs from %s's", tab.Name, ref.Name)
		}
		if tab.Heap.FileID() != ref.Heap.FileID() || tab.Heap.NumPages() != ref.Heap.NumPages() {
			t.Fatalf("%s: file %d of %d pages, want file %d of %d", tab.Name,
				tab.Heap.FileID(), tab.Heap.NumPages(), ref.Heap.FileID(), ref.Heap.NumPages())
		}
		for p := 0; p < tab.Heap.NumPages(); p++ {
			g, err := got.Disk.ReadPage(tab.Heap.FileID(), storage.PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			w, err := want.Disk.ReadPage(ref.Heap.FileID(), storage.PageID(p))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(g.Data(), w.Data()) {
				t.Fatalf("%s page %d differs", tab.Name, p)
			}
		}
		names := make([]string, 0, len(tab.Indexes))
		for name := range tab.Indexes {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) != len(ref.Indexes) {
			t.Fatalf("%s: %d indexes, want %d", tab.Name, len(names), len(ref.Indexes))
		}
		for j, name := range names {
			tr, eager := tab.Indexes[name], ref.Indexes[name]
			b0 := btree.Builds()
			if j == 0 {
				tid := storage.TID{Page: storage.PageID(tab.Heap.NumPages()), Slot: 3}
				tr.Insert(-5, tid)
				eager.Insert(-5, tid)
			} else if g, w := tr.Probe(1), eager.Probe(1); !slices.Equal(g, w) {
				t.Fatalf("%s.%s: first probe %v, eager %v", tab.Name, name, g, w)
			}
			if n := btree.Builds() - b0; n != 1 {
				t.Fatalf("%s.%s: first use built %d trees, want 1", tab.Name, name, n)
			}
			if err := shapeOf(tr).diff(shapeOf(eager)); err != nil {
				t.Fatalf("%s.%s: %v", tab.Name, name, err)
			}
		}
	}
}
