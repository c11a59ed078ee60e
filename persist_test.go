package predplace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"predplace/internal/btree"
	"predplace/internal/storage"
)

func TestSaveAndOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.ppdb")

	orig := openBench(t, 3, 9)
	const sql = "SELECT * FROM t3, t9 WHERE t3.ua1 = t9.ua1 AND costly100(t9.u20)"
	before, err := orig.Query(sql, Migration)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}

	restored, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := restored.Query(sql, Migration)
	if err != nil {
		t.Fatal(err)
	}
	if after.Stats.Rows != before.Stats.Rows {
		t.Fatalf("rows after restore: %d, want %d", after.Stats.Rows, before.Stats.Rows)
	}
	if after.Plan != before.Plan {
		t.Fatalf("plan changed after restore:\n%s\nvs\n%s", after.Plan, before.Plan)
	}
	if after.Stats.Invocations["costly100"] != before.Stats.Invocations["costly100"] {
		t.Fatalf("invocations differ: %d vs %d",
			after.Stats.Invocations["costly100"], before.Stats.Invocations["costly100"])
	}

	// A restored handle takes every Config field Open takes.
	tuned, err := OpenFile(path, Config{Feedback: true, RobustE: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plan, err := tuned.Explain(sql, Robust); err != nil || !tuned.Feedback() || !strings.Contains(plan, "robust interval=[sel/8, sel×8]") {
		t.Fatalf("OpenFile dropped Config.Feedback (%v) or RobustE (err %v):\n%s", tuned.Feedback(), err, plan)
	}
}

func TestSaveRestoresIndexes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "idx.ppdb")
	orig := openBench(t, 2)
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// An indexed equality must still pick the index scan.
	p, err := restored.Explain("SELECT * FROM t2 WHERE t2.a1 = 7", PushDown)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "IndexScan t2.a1") {
		t.Fatalf("index not rebuilt:\n%s", p)
	}
	res, err := restored.Query("SELECT * FROM t2 WHERE t2.a1 = 7", PushDown)
	if err != nil || res.Stats.Rows != 1 {
		t.Fatalf("index probe after restore: rows=%d err=%v", res.Stats.Rows, err)
	}
}

func TestSaveRestoresUserTablesAndStats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "user.ppdb")
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	db.CreateTable("emp", []ColumnSpec{{Name: "id", Indexed: true}, {Name: "dept"}, {Name: "nm", String: true, Len: 8}})
	for i := 0; i < 200; i++ {
		db.Insert("emp", i, i%7, "x")
	}
	if err := db.Analyze("emp"); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := restored.Catalog().Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Card != 200 {
		t.Fatalf("card = %d", tab.Card)
	}
	col, _ := tab.Column("dept")
	if col.Distinct != 7 || col.Hist == nil {
		t.Fatalf("stats lost: distinct=%d hist=%v", col.Distinct, col.Hist)
	}
	res, err := restored.Query("SELECT COUNT(*) FROM emp WHERE emp.dept = 3", PushDown)
	if err != nil || res.Rows[0][0].I != 29 {
		t.Fatalf("query after restore: %v %v", res.Rows, err)
	}
}

func TestOpenFileErrors(t *testing.T) {
	if _, err := OpenFile("/nonexistent/path.ppdb", Config{}); err == nil {
		t.Fatal("missing file should error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ppdb")
	os.WriteFile(bad, []byte("not a snapshot"), 0o644)
	if _, err := OpenFile(bad, Config{}); err == nil {
		t.Fatal("garbage file should error")
	}

	// Two forged lengths, each read from the file before anything checks
	// it: a manifest longer than the file, and a disk image whose one file
	// declares 2^28 pages. Each must fail without allocating what it claims.
	var manifest, disk bytes.Buffer
	if err := gob.NewEncoder(&manifest).Encode(&snapshot{}); err != nil {
		t.Fatal(err)
	}
	empty := storage.NewDisk(nil)
	empty.CreateFile()
	if err := empty.Serialize(&disk); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(disk.Bytes()[disk.Len()-4:], 1<<28)
	snapshotOf := func(mlen int) []byte {
		img := binary.LittleEndian.AppendUint64(nil, uint64(mlen))
		return append(append(img, manifest.Bytes()...), disk.Bytes()...)
	}
	for name, img := range map[string][]byte{
		"manifest longer than the file": snapshotOf(16 << 20),
		"forged page count":             snapshotOf(manifest.Len()),
	} {
		path := filepath.Join(dir, "forged.ppdb")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenFile(path, Config{})
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; err == nil || n >= 1<<20 {
			t.Errorf("%s: err %v after allocating %d bytes, want an error and < 1 MiB", name, err, n)
		}
	}
}

// TestOpenFileDefersIndexes: OpenFile builds no tree, and each restored
// index, on its first probe, is node for node — entries in leaf order, leaf
// sizes, height — the tree that inserting the restored heap's keys one at a
// time in scan order builds, which is also the saved database's tree.
func TestOpenFileDefersIndexes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deferred.ppdb")
	orig := openBench(t, 2, 3)
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	b0 := btree.Builds()
	restored, err := OpenFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := btree.Builds() - b0; n != 0 {
		t.Fatalf("OpenFile built %d trees", n)
	}
	for _, tab := range restored.inner.Cat.Tables() {
		saved, err := orig.inner.Cat.Table(tab.Name)
		if err != nil {
			t.Fatal(err)
		}
		for col, tree := range tab.Indexes {
			eager := btree.New(nil)
			ci := tab.ColIndex(col)
			it := tab.Heap.Scan()
			for rec, tid, ok, err := it.Next(); ok || err != nil; rec, tid, ok, err = it.Next() {
				if err != nil {
					t.Fatal(err)
				}
				v, err := tab.Codec.DecodeCol(rec, ci)
				if err != nil {
					t.Fatal(err)
				}
				eager.Insert(v.I, tid)
			}
			it.Close()
			b := btree.Builds()
			tree.Probe(3)
			if n := btree.Builds() - b; n != 1 {
				t.Fatalf("%s.%s: first probe built %d trees, want 1", tab.Name, col, n)
			}
			got := leafShape(tree)
			for _, want := range []string{leafShape(eager), leafShape(saved.Indexes[col])} {
				if got != want {
					t.Fatalf("%s.%s: restored tree %.80s…, want %.80s…", tab.Name, col, got, want)
				}
			}
		}
	}
}

// leafShape renders a tree's height and its leaves' entries in leaf order, a
// leaf per line: a ScanAll through a view charges one read per leaf it enters.
func leafShape(tr *btree.Tree) string {
	var acct storage.Accountant
	var b strings.Builder
	fmt.Fprintf(&b, "height %d", tr.Height())
	it := tr.WithAcct(&acct).ScanAll()
	var reads int64
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		if r := acct.Stats().RandReads; r != reads {
			b.WriteString("\n")
			reads = r
		}
		fmt.Fprintf(&b, " %d@%v", e.Key, e.TID)
	}
	return b.String()
}
