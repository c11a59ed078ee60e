package predplace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"

	"predplace/internal/btree"
	"predplace/internal/catalog"
	"predplace/internal/datagen"
	"predplace/internal/expr"
	"predplace/internal/storage"
)

// snapshot is the persisted database manifest: table metadata plus a raw
// disk image. User-defined functions are code and must be re-registered
// after OpenFile; the costlyN benchmark family is restored automatically.
type snapshot struct {
	Tables []tableManifest
}

// tableManifest is one table's persisted metadata.
type tableManifest struct {
	Name       string
	Columns    []catalog.Column
	Card       int64
	TupleBytes int
	HeapFile   uint32
	IndexCols  []string
}

// Save writes the database (catalog metadata and every page) to path. The
// snapshot is self-contained except for user-defined functions, which must
// be re-registered after OpenFile.
func (d *DB) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var snap snapshot
	for _, tab := range d.inner.Cat.Tables() {
		if tab.Heap == nil {
			return fmt.Errorf("predplace: table %s has no storage; cannot snapshot", tab.Name)
		}
		m := tableManifest{
			Name:       tab.Name,
			Columns:    tab.Columns,
			Card:       tab.Card,
			TupleBytes: tab.TupleBytes,
			HeapFile:   uint32(tab.Heap.FileID()),
		}
		for col := range tab.Indexes {
			m.IndexCols = append(m.IndexCols, col)
		}
		sort.Strings(m.IndexCols)
		snap.Tables = append(snap.Tables, m)
	}
	// The manifest is length-prefixed: gob decoders read ahead, which would
	// otherwise swallow the start of the page image.
	var manifest bytes.Buffer
	if err := gob.NewEncoder(&manifest).Encode(&snap); err != nil {
		return fmt.Errorf("predplace: encoding manifest: %w", err)
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(manifest.Len()))
	if _, err := f.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := f.Write(manifest.Bytes()); err != nil {
		return err
	}
	if err := d.inner.Disk.Serialize(f); err != nil {
		return fmt.Errorf("predplace: writing pages: %w", err)
	}
	return f.Sync()
}

// OpenFile restores a database saved with Save. Indexes are rebuilt from the
// heap data (they are derived state); statistics come from the manifest.
// Standard benchmark functions are registered; user-defined functions must
// be re-registered by the caller.
func OpenFile(path string, cfg Config) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var lenBuf [8]byte
	if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("predplace: truncated snapshot: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	mlen := binary.LittleEndian.Uint64(lenBuf[:])
	if rest := uint64(st.Size()) - uint64(len(lenBuf)); mlen > rest {
		return nil, fmt.Errorf("predplace: manifest of %d bytes in a snapshot with %d bytes left", mlen, rest)
	}
	manifest := make([]byte, mlen)
	if _, err := io.ReadFull(f, manifest); err != nil {
		return nil, fmt.Errorf("predplace: truncated manifest: %w", err)
	}
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(manifest)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("predplace: decoding manifest: %w", err)
	}
	acct := &storage.Accountant{}
	disk, err := storage.ReadDisk(f, acct)
	if err != nil {
		return nil, err
	}
	pool := cfg.PoolPages
	if pool == 0 {
		pool = 1024
	}
	workers := resolveParallelism(cfg.Parallelism)
	inner := &datagen.DB{
		Disk: disk,
		Pool: storage.NewShardedBufferPool(disk, pool, poolShards(workers)),
		Cat:  catalog.New(),
	}
	if err := datagen.RegisterStandardFuncs(inner.Cat); err != nil {
		return nil, err
	}
	for _, m := range snap.Tables {
		heap, err := storage.OpenHeapFile(inner.Pool, storage.FileID(m.HeapFile))
		if err != nil {
			return nil, fmt.Errorf("predplace: table %s: %w", m.Name, err)
		}
		codec, err := catalog.NewRowCodec(m.Columns)
		if err != nil {
			return nil, fmt.Errorf("predplace: table %s: %w", m.Name, err)
		}
		tab := &catalog.Table{
			Name:       m.Name,
			Columns:    m.Columns,
			Heap:       heap,
			Indexes:    map[string]*btree.Tree{},
			Card:       m.Card,
			TupleBytes: m.TupleBytes,
			Codec:      codec,
		}
		if err := rebuildIndexes(inner, tab, m.IndexCols); err != nil {
			return nil, err
		}
		if err := inner.Cat.AddTable(tab); err != nil {
			return nil, err
		}
	}
	// Restoration I/O is not part of any measured query.
	inner.Disk.Accountant().Reset()
	inner.Pool.ResetCounters()
	return newDB(inner, cfg, workers), nil
}

// rebuildIndexes scans the heap for each index column's (key, TID) pairs;
// each column's B-tree inserts them on its first probe (btree.Deferred).
func rebuildIndexes(db *datagen.DB, tab *catalog.Table, cols []string) error {
	if len(cols) == 0 {
		return nil
	}
	idx := make([]int, len(cols))
	pairs := make([][]btree.Entry, len(cols))
	for i, c := range cols {
		ci := tab.ColIndex(c)
		if ci < 0 {
			return fmt.Errorf("predplace: table %s: index column %s missing", tab.Name, c)
		}
		idx[i] = ci
	}
	it := tab.Heap.Scan()
	defer it.Close()
	for {
		rec, tid, ok, err := it.NextRef()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i := range cols {
			v, err := tab.Codec.DecodeCol(rec, idx[i])
			if err != nil {
				return err
			}
			if v.Kind == expr.TInt {
				pairs[i] = append(pairs[i], btree.Entry{Key: v.I, TID: tid})
			}
		}
	}
	for i, c := range cols {
		tab.Indexes[c] = btree.Deferred(db.Disk.Accountant(), pairs[i])
	}
	return nil
}
