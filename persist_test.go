package predplace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

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
