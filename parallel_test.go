package predplace_test

import (
	"testing"

	"predplace"
)

// TestParallelismKnobDefaultsSerial pins the facade contract: Parallelism 0
// and 1 both mean the serial executor, and a negative value resolves to the
// machine's processor count.
func TestParallelismKnobDefaultsSerial(t *testing.T) {
	db, err := predplace.Open(predplace.Config{Scale: 0.01, Tables: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Parallelism(); got != 1 {
		t.Fatalf("default parallelism = %d, want 1", got)
	}
	db.SetParallelism(-1)
	if got := db.Parallelism(); got < 1 {
		t.Fatalf("negative parallelism resolved to %d", got)
	}
	db.SetParallelism(0)
	if got := db.Parallelism(); got != 1 {
		t.Fatalf("parallelism 0 should mean serial, got %d", got)
	}
}
