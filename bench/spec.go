package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json names it. Bound is the share of
// the parent's median by which an end-to-end metric may get worse before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the system sees, the same on every
// workload, measured with tracing and profiling off. The bounds come from
// repeated runs at the commit that added the benchmark (README.md): the
// sandbox's run-to-run spread of any wall time is 5-15 %, so the timing
// bounds are wide, and op_ms_p90 / op_ms_p99, which spread further still,
// are reported with the per-layer metrics (tail.*) instead of bounded here.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"op_ms_p50", "ms", "lower", bound(0.25)},
	{"charged_per_op", "io", "lower", bound(0.005)},
	{"alloc_mb_per_op", "MiB", "lower", bound(0.05)},
}

// perLayer are the single-layer metrics, from the traced pass and the
// probes; the prefix is the module the number belongs to.
var perLayer = func() []metricSpec {
	ms := []metricSpec{
		{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
		{Name: "sqlparse.bind_us", Unit: "us", Better: "lower"},
	}
	for _, a := range planAlgos {
		ms = append(ms, metricSpec{Name: "optimizer.plan_us." + a.suffix, Unit: "us", Better: "lower"})
	}
	ms = append(ms,
		metricSpec{Name: "optimizer.plan_share", Unit: "share", Better: "lower"},
		metricSpec{Name: "plancache.hit_rate", Unit: "share", Better: "higher"},
		metricSpec{Name: "plancache.prepare_hit_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "plancache.prepare_miss_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "plancache.evictions_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
	)
	for _, k := range opKinds {
		ms = append(ms, metricSpec{Name: "exec.self_ms." + k, Unit: "ms", Better: "lower"})
	}
	return append(ms,
		metricSpec{Name: "exec.finish_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "exec.rows_in_per_row_out", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "exec.pred_evals_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "exec.udf_invocations_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "exec.batches_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "storage.seq_reads_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "storage.rand_reads_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "storage.scan_rows_per_s", Unit: "1/s", Better: "higher"},
		metricSpec{Name: "storage.fetch_hit_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "storage.fetch_miss_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "storage.get_rand_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "storage.pool_hit_rate", Unit: "share", Better: "higher"},
		metricSpec{Name: "catalog.decode_ns_per_row", Unit: "ns", Better: "lower"},
		metricSpec{Name: "catalog.encode_ns_per_row", Unit: "ns", Better: "lower"},
		metricSpec{Name: "btree.probe_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "btree.range_ns_per_entry", Unit: "ns", Better: "lower"},
		metricSpec{Name: "btree.leaf_reads_per_probe", Unit: "count", Better: "lower"},
		metricSpec{Name: "pcache.hit_rate", Unit: "share", Better: "higher"},
		metricSpec{Name: "pcache.entries_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "pcache.lookup_hit_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "pcache.store_ns", Unit: "ns", Better: "lower"},
		metricSpec{Name: "pcache.getbatch_ns_per_key", Unit: "ns", Better: "lower"},
		metricSpec{Name: "server.admit_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "server.shed_share", Unit: "share", Better: "lower"},
		metricSpec{Name: "server.dnf_share", Unit: "share", Better: "lower"},
		metricSpec{Name: "httpserver.overhead_us", Unit: "us", Better: "lower"},
		metricSpec{Name: "httpserver.resp_kb_per_op", Unit: "KiB", Better: "lower"},
		metricSpec{Name: "datagen.build_s", Unit: "s", Better: "lower"},
		metricSpec{Name: "datagen.rows_per_s", Unit: "1/s", Better: "higher"},
		metricSpec{Name: "tail.op_ms_p90", Unit: "ms", Better: "lower"},
		metricSpec{Name: "tail.op_ms_p99", Unit: "ms", Better: "lower"},
		metricSpec{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.gc_cpu_share", Unit: "share", Better: "lower"},
		metricSpec{Name: "runtime.speed_factor", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "trace.spans_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "trace.accounted_share", Unit: "share", Better: "higher"},
	)
}()

// currentSpec is the BENCHMARK.json this source defines; -write-spec writes
// it, and the smoke test holds the committed file to it.
func currentSpec() *benchSpec {
	s := &benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

func (s *benchSpec) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &benchSpec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
