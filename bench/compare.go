package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &resultFile{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles holds result file B to result file A: for every end-to-end
// metric on every workload both ran, B's median may be worse than A's by at
// most the metric's bound in BENCHMARK.json. Where either file holds several
// repeats (-repeat) and their own quartile spread exceeds the bound, the row
// reads "unresolved": the two runs cannot tell a change of that size from
// noise. It reports whether no row regressed.
func compareFiles(specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	inB := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	ok := true
	fmt.Printf("%-17s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := inB[wa.Name]
		if wb == nil || wa.Measured == nil || wb.Measured == nil {
			continue
		}
		for _, s := range spec.EndToEnd {
			va, vb := wa.Measured.Metrics[s.Name], wb.Measured.Metrics[s.Name]
			worse := ratio(vb-va, va)
			if s.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch noise := max(runSpread(wa.Measured, s.Name), runSpread(wb.Measured, s.Name)); {
			case worse > *s.Bound:
				verdict, ok = "REGRESSED", false
			case noise > *s.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%)", 100*noise)
			}
			fmt.Printf("%-17s %-16s %14.6g %14.6g %+7.2f%% %6.1f%%  %s\n",
				wa.Name, s.Name, va, vb, 100*worse, 100**s.Bound, verdict)
		}
	}
	return ok, nil
}

// runSpread is a metric's quartile spread over a result's repeats (0 with
// fewer than two).
func runSpread(m *measured, name string) float64 {
	if len(m.Runs) < 2 {
		return 0
	}
	vals := make([]float64, len(m.Runs))
	for i, r := range m.Runs {
		vals[i] = r[name]
	}
	return spread(vals)
}
