package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	sort.Strings(out)
	return out
}

// TestQuickRunMatchesSpec runs all five workloads at smoke-test size and
// holds what they emit to the committed BENCHMARK.json, name for name.
func TestQuickRunMatchesSpec(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(spec, want) {
		t.Errorf("BENCHMARK.json differs from the source's definition; run: go run . -write-spec")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or repeated", s.Name)
		}
		seen[s.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the source %d", len(spec.Workloads), len(workloads))
	}

	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	e := &env{c: 2, quick: true, seed: 1, golden: golden}
	for _, ws := range spec.Workloads {
		w := findWorkload(ws.Name)
		if w == nil || !nameRE.MatchString(ws.Name) {
			t.Fatalf("workload %q of BENCHMARK.json is unknown or malformed", ws.Name)
		}
		m, err := runMeasured(w, e, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keys(m.Metrics), names(spec.EndToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s end-to-end metrics = %v, want %v", w.name, got, want)
		}
		tr, err := runTraced(w, e, 0, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := keys(tr.Metrics), names(spec.PerLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s per-layer metrics = %v, want %v", w.name, got, want)
		}
		if m.Failed != 0 || tr.Failed != 0 || m.Attempted != w.quickOps {
			t.Errorf("%s: failed %d+%d of %d attempted (%s%s)", w.name, m.Failed, tr.Failed, m.Attempted, m.Failure, tr.Failure)
		}
		for _, name := range []string{"ops_per_s", "op_ms_p50", "charged_per_op", "setup_s"} {
			if m.Metrics[name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Metrics[name])
			}
		}
	}
}

// TestSelfTimes folds a three-level span tree: a span's self time is its
// duration minus what its direct children cover, overlap counted once.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "exec", StartNs: 10, EndNs: 60},
		{ID: 2, Parent: 0, Name: "verify", StartNs: 50, EndNs: 90}, // overlaps exec by 10
		{ID: 3, Parent: 1, Name: "scan", StartNs: 20, EndNs: 40},
		{ID: 4, Parent: 1, Name: "scan", StartNs: 45, EndNs: 55},
	}
	want := map[string]int64{"op": 100 - 80, "exec": 50 - 30, "verify": 40, "scan": 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestQuartiles pins the spread rule to Python's statistics.quantiles(n=4),
// which the benchmark contract uses.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{9, 1, 4, 7, 3, 10, 2, 8, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

// TestCompare holds a result to another within the bounds of BENCHMARK.json.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS float64) string {
		r := resultFile{Workloads: []*workloadResult{{Name: "plan_only",
			Measured: &measured{Metrics: map[string]float64{"ops_per_s": opsPerS}}}}}
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 100)
	for _, c := range []struct {
		opsPerS float64
		ok      bool
	}{{90, true}, {130, true}, {70, false}} {
		ok, err := compareFiles("../BENCHMARK.json", base, write("b.json", c.opsPerS))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("ops_per_s 100 -> %v: ok = %v, want %v", c.opsPerS, ok, c.ok)
		}
	}
}
