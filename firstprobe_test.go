package predplace_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"predplace"
	"predplace/internal/btree"
	"predplace/internal/harness"
)

// TestFirstProbeConcurrentSessions opens a database whose indexes are not
// built yet and runs two sessions at once, at Parallelism 3, whose first
// statements probe the same tree: point lookups on t3.a1 and an index nested
// loop whose inner is t3.a1, over an outer scan the exchange splits across
// its workers. The tree must be built once, and every result must equal the
// same statement's on a database whose tree was built before, serially —
// rows and charged cost. check.sh runs it under the race detector.
func TestFirstProbeConcurrentSessions(t *testing.T) {
	stmts := []string{
		"SELECT * FROM t3 WHERE t3.a1 = 17",
		"SELECT * FROM t3, t2 WHERE t3.a1 = t2.ua1 AND t2.a1 < 3",
		"SELECT * FROM t3 WHERE t3.a1 = 250",
	}
	cfg := predplace.Config{Scale: 0.01, Tables: []int{1, 2, 3}}
	serial, err := predplace.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		rows    []string
		charged float64
	}
	want := make([]answer, len(stmts))
	for i, sql := range stmts {
		res, err := serial.Query(sql, predplace.PullRank)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan, "Index") {
			t.Fatalf("%s plans no index access:\n%s", sql, res.Plan)
		}
		want[i] = answer{harness.CanonRows(res, false), res.Stats.Charged()}
	}

	cfg.Parallelism = 3
	db, err := predplace.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := predplace.NewServer(db, predplace.ServerConfig{MaxConcurrent: 2})
	b0 := btree.Builds()
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(stmts))
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			for k := range stmts {
				i := (k + s) % len(stmts)
				res, err := srv.Query(context.Background(), fmt.Sprintf("session-%d", s), stmts[i], predplace.PullRank)
				if err != nil {
					errs <- err
					return
				}
				if got := harness.CanonRows(res, false); !slices.Equal(got, want[i].rows) {
					errs <- fmt.Errorf("session %d %s: %d rows, serial %d", s, stmts[i], len(got), len(want[i].rows))
				}
				if got := res.Stats.Charged(); got != want[i].charged {
					errs <- fmt.Errorf("session %d %s: charged %v, serial %v", s, stmts[i], got, want[i].charged)
				}
			}
		}(s)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := btree.Builds() - b0; n != 1 {
		t.Fatalf("%d trees built, want 1 (t3.a1)", n)
	}
}
