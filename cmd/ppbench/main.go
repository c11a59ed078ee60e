// Command ppbench regenerates every table and figure of "Practical Predicate
// Placement" (Hellerstein, SIGMOD 1994) against the reproduction's benchmark
// database.
//
// Usage:
//
//	ppbench [-scale 0.1] [-exp all|table1|table2|fig1|fig3|fig4|fig5|fig6|fig8|fig9|fig10|plantime|caching]
//	ppbench -parallel [-workers N] [-iters N] [-json] [-scale 0.1 | -scales 0.02,0.1]
//	ppbench -batch [-workers N] [-iters N] [-json] [-scale 0.1 | -scales 0.02,0.1]
//	ppbench -faults [-seeds N] [-workers N] [-json] [-scale 0.1]
//	ppbench -profile [-iters N] [-json] [-scale 0.1]
//	ppbench -transfer [-workers N] [-iters N] [-json] [-scale 0.1]
//	ppbench -topk [-workers N] [-iters N] [-json] [-scale 0.1]
//	ppbench -feedback [-json] [-scale 0.1]
//	ppbench -server [-sessions 1,2,4,8] [-iters N] [-json] [-scale 0.1]
//
// Measurements are charged costs in random-I/O units (page I/Os plus
// function invocations × per-call cost — the paper's methodology), reported
// relative to the best plan per query.
//
// With -parallel, Queries 1–5 run serially and with N-way intra-query
// parallelism on the same database (Migration plans, caching off), comparing
// wall time, result sets, and charged cost; -json additionally writes
// BENCH_parallel.json. With -batch, the same queries run tuple-at-a-time
// (BatchSize 1), batched serial, and batched parallel, additionally
// comparing allocation counts and (for the serial modes) exact row order;
// -json writes BENCH_batch.json. Both modes exit nonzero if any executor's
// results or charged cost diverge. -iters times each mode best-of-N so
// millisecond-scale queries are not noise-dominated, and -scales sweeps a
// comma-separated list of scale factors (the JSON payload becomes an array
// when more than one scale is swept).
//
// With -faults, Queries 1–5 run under deterministic injected storage read
// faults (-seeds fault sites per query) and aggressive deadlines, across
// serial/parallel × tuple/batched configurations. Every run must end in an
// accepted outcome — clean baseline-identical rows, an error wrapping the
// injected fault, a DNF, or a deadline error — with zero pinned buffer-pool
// frames afterwards; -json writes BENCH_faults.json. Fault and timeout runs
// never contribute to the figure reproductions.
//
// With -profile, Queries 1–5 plus the §3.1 Figure 1 example each run
// unprofiled and then with per-operator profiling on; results and charged
// costs must match exactly (profiling is observational). The profiled runs'
// per-operator est-vs-actual trees are printed and, with -json, written to
// BENCH_profile.json.
//
// With -transfer, Queries 3–5 run with predicate transfer off and on across
// tuple/batched × serial/parallel configurations: a serial prepass builds a
// Bloom filter per join-key equivalence class and the main scans probe the
// received filters before decoding. Transfer-on results must be identical to
// transfer-off in every configuration; the report compares wall time,
// charged cost (filter builds and probes are charged — transfer is never
// free), rows pruned, and filter false-positive rates. -json writes
// BENCH_transfer.json.
//
// With -server, Queries 1–5 run through predplace.Server from each listed
// session count's worth of concurrent client goroutines (-iters queries per
// session), comparing every result's rows and charged cost against the
// single-session baseline, reporting throughput, tail latency, and the plan
// cache's hit ratio, then exercising admission control (a burst against a
// one-slot, no-queue server must shed with ErrOverloaded) and the tenant
// quota clamp (DNF at the boundary, then ErrQuotaExceeded); -json writes
// BENCH_server.json.
//
// With -topk, ORDER BY … LIMIT k queries run with top-k execution off (full
// facade sort) and on (bounded-heap TopK, or an early-terminating Limit over
// an index-order scan when the ORDER BY key is a unique indexed column)
// across tuple/batched × serial/parallel configurations and k ∈ {1, 10, 100,
// 1000}. Top-k-on results must be row-for-row identical to top-k-off in
// every configuration, and the ordered-index flagship at k=10 must cut the
// charged cost at least 2× — the limit has to reach the scan, not just the
// sort. -json writes BENCH_topk.json.
//
// With -feedback, a zero-cost stub predicate with a fixed true selectivity is
// re-registered with declared selectivities wrong by factors e ∈ {1, 2, 4, 8}
// in both directions, and PushDown, Migration, and Robust run the same join
// query under each misdeclaration. Results must be identical everywhere; at
// e=1 all three algorithms' charged costs must agree, and at e ≥ 4 Robust's
// worst-case charged cost must beat both point-estimate algorithms. A final
// leg runs the worst misdeclaration twice with feedback-driven statistics on:
// the harvested observation must be promoted and the re-planned second run
// must charge no more than the first. -json writes BENCH_feedback.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"predplace/internal/harness"
)

func main() {
	scale := flag.Float64("scale", 0.1, "database scale factor (1.0 = the paper's ~110 MB)")
	scales := flag.String("scales", "", "comma-separated scale sweep for -parallel/-batch (overrides -scale)")
	exp := flag.String("exp", "all", "experiment id or 'all'")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Bool("parallel", false, "run the serial-vs-parallel execution bench instead of the figures")
	batch := flag.Bool("batch", false, "run the width-invariance bench (BatchSize 1 = one row per call, vs default width, vs parallel) instead of the figures")
	faults := flag.Bool("faults", false, "run the fault/timeout sweep instead of the figures")
	profile := flag.Bool("profile", false, "run the per-operator profiling bench instead of the figures")
	transfer := flag.Bool("transfer", false, "run the predicate-transfer off-vs-on bench instead of the figures")
	topk := flag.Bool("topk", false, "run the top-k-execution off-vs-on bench instead of the figures")
	feedback := flag.Bool("feedback", false, "run the estimate-error/feedback bench instead of the figures")
	server := flag.Bool("server", false, "run the multi-session server bench instead of the figures")
	sessions := flag.String("sessions", "1,2,4,8", "with -server, comma-separated session counts to sweep")
	seeds := flag.Int("seeds", 3, "with -faults, fault sites tried per query")
	workers := flag.Int("workers", 0, "parallel worker fan-out (0 = max(4, GOMAXPROCS))")
	iters := flag.Int("iters", 1, "with -parallel/-batch, time each mode best-of-N runs")
	jsonOut := flag.Bool("json", false, "with -parallel/-batch/-faults, also write BENCH_<mode>.json")
	flag.Parse()

	if *list {
		fmt.Println("experiments: all", strings.Join(experimentIDs(), " "))
		return
	}

	if *faults {
		runFaultBench(*scale, resolveWorkers(*workers), *seeds, *jsonOut)
		return
	}

	if *profile {
		runProfileBench(*scale, *iters, *jsonOut)
		return
	}

	if *transfer {
		runTransferBench(*scale, resolveWorkers(*workers), *iters, *jsonOut)
		return
	}

	if *topk {
		runTopKBench(*scale, resolveWorkers(*workers), *iters, *jsonOut)
		return
	}

	if *feedback {
		runFeedbackBench(*scale, *jsonOut)
		return
	}

	if *server {
		runServerBench(*scale, *sessions, *iters, *jsonOut)
		return
	}

	if *parallel || *batch {
		sweep, err := parseScales(*scales, *scale)
		if err != nil {
			fatal(err)
		}
		runExecBench(*batch, sweep, *workers, *iters, *jsonOut)
		return
	}

	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f…\n", *scale)
	h, err := harness.New(*scale)
	if err != nil {
		fatal(err)
	}

	var reports []*harness.Report
	if *exp == "all" {
		reports, err = h.RunAll()
	} else {
		run, ok := h.Experiments()[*exp]
		if !ok {
			fatal(fmt.Errorf("unknown experiment %q; try -list", *exp))
		}
		var r *harness.Report
		r, err = run()
		reports = []*harness.Report{r}
	}
	if err != nil {
		fatal(err)
	}

	failed := 0
	for _, r := range reports {
		fmt.Println(r)
		if !r.Passed() {
			failed++
		}
	}
	fmt.Printf("%d/%d experiments reproduced the paper's shape\n", len(reports)-failed, len(reports))
	if failed > 0 {
		os.Exit(1)
	}
}

// parseScales turns the -scales list into a sweep, falling back to the
// single -scale value.
func parseScales(list string, single float64) ([]float64, error) {
	if list == "" {
		return []float64{single}, nil
	}
	var out []float64
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad -scales entry %q", s)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scales lists no scale factors")
	}
	return out, nil
}

// runExecBench executes the serial-vs-parallel comparison (or, with
// batchMode, the tuple-vs-batch-vs-parallel comparison) at each scale in
// the sweep and exits nonzero when any executor mode diverges.
func runExecBench(batchMode bool, sweep []float64, workers, iters int, jsonOut bool) {
	workers = resolveWorkers(workers)
	if iters < 1 {
		iters = 1
	}
	name, file := "parallel", "BENCH_parallel.json"
	if batchMode {
		name, file = "batch", "BENCH_batch.json"
	}
	pass := true
	var payloads []any
	for _, scale := range sweep {
		fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f (%d workers, %d iters)…\n",
			scale, workers, iters)
		h, err := harness.NewParallel(scale, workers)
		if err != nil {
			fatal(err)
		}
		if batchMode {
			bench, err := h.RunBatchBench(workers, iters)
			if err != nil {
				fatal(err)
			}
			fmt.Print(bench)
			pass = pass && bench.Pass
			payloads = append(payloads, bench)
		} else {
			bench, err := h.RunParallelBenchIters(workers, iters)
			if err != nil {
				fatal(err)
			}
			fmt.Print(bench)
			pass = pass && bench.Pass
			payloads = append(payloads, bench)
		}
	}
	if jsonOut {
		data, err := marshalSweep(payloads)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote", file)
	}
	if !pass {
		fmt.Fprintf(os.Stderr, "ppbench: %s executor diverged\n", name)
		os.Exit(1)
	}
}

// resolveWorkers maps the -workers flag to an effective fan-out.
func resolveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	workers = runtime.GOMAXPROCS(0)
	if workers < 4 {
		// Exercise the parallel operators even on small machines; extra
		// workers beyond the core count still validate correctness.
		workers = 4
	}
	return workers
}

// runFaultBench executes the fault/timeout sweep and exits nonzero when any
// run violates the executor's failure contract.
func runFaultBench(scale float64, workers, seeds int, jsonOut bool) {
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f (%d workers, %d seeds)…\n",
		scale, workers, seeds)
	h, err := harness.NewParallel(scale, workers)
	if err != nil {
		fatal(err)
	}
	bench, err := h.RunFaultBench(workers, seeds)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench)
	if jsonOut {
		data, err := bench.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_faults.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_faults.json")
	}
	if !bench.Pass {
		fmt.Fprintln(os.Stderr, "ppbench: fault sweep violated the failure contract")
		os.Exit(1)
	}
}

// runProfileBench executes the per-operator profiling bench (Queries 1–5
// plus the Figure 1 example, each unprofiled then profiled) and exits
// nonzero when profiling changes any result or charged cost.
func runProfileBench(scale float64, iters int, jsonOut bool) {
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f (%d iters)…\n", scale, iters)
	h, err := harness.New(scale)
	if err != nil {
		fatal(err)
	}
	bench, err := h.RunProfileBench(iters)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench)
	if jsonOut {
		data, err := bench.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_profile.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_profile.json")
	}
	if !bench.Pass {
		fmt.Fprintln(os.Stderr, "ppbench: profiling changed results or charged costs")
		os.Exit(1)
	}
}

// runTransferBench executes the predicate-transfer off-vs-on comparison and
// exits nonzero when transfer changed any result set.
func runTransferBench(scale float64, workers, iters int, jsonOut bool) {
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f (%d workers, %d iters)…\n",
		scale, workers, iters)
	h, err := harness.NewParallel(scale, workers)
	if err != nil {
		fatal(err)
	}
	bench, err := h.RunTransferBench(workers, iters)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench)
	if jsonOut {
		data, err := bench.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_transfer.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_transfer.json")
	}
	if !bench.Pass {
		fmt.Fprintln(os.Stderr, "ppbench: predicate transfer changed a result set")
		os.Exit(1)
	}
}

// runTopKBench executes the top-k-execution off-vs-on comparison and exits
// nonzero when it changed any result set or missed the flagship reduction.
func runTopKBench(scale float64, workers, iters int, jsonOut bool) {
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f (%d workers, %d iters)…\n",
		scale, workers, iters)
	h, err := harness.NewParallel(scale, workers)
	if err != nil {
		fatal(err)
	}
	bench, err := h.RunTopKBench(workers, iters)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench)
	if jsonOut {
		data, err := bench.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_topk.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_topk.json")
	}
	if !bench.Pass {
		fmt.Fprintln(os.Stderr, "ppbench: top-k execution changed a result set or missed the 2x flagship reduction")
		os.Exit(1)
	}
}

// runFeedbackBench executes the estimate-error sweep plus the closed
// feedback loop and exits nonzero when any criterion fails.
func runFeedbackBench(scale float64, jsonOut bool) {
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f…\n", scale)
	h, err := harness.New(scale)
	if err != nil {
		fatal(err)
	}
	bench, err := h.RunFeedbackBench()
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench)
	if jsonOut {
		data, err := bench.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_feedback.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_feedback.json")
	}
	if !bench.Pass {
		fmt.Fprintln(os.Stderr, "ppbench: estimate-error/feedback bench failed a criterion")
		os.Exit(1)
	}
}

// runServerBench executes the multi-session server bench (N concurrent
// sessions over one DB through predplace.Server) and exits nonzero when any
// concurrent result diverged from its single-session baseline, the plan
// cache never hit, or admission control misbehaved.
func runServerBench(scale float64, sessionList string, iters int, jsonOut bool) {
	sessions, err := parseSessions(sessionList)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f (sessions %v, %d iters)…\n",
		scale, sessions, iters)
	h, err := harness.New(scale)
	if err != nil {
		fatal(err)
	}
	bench, err := h.RunServerBench(sessions, iters)
	if err != nil {
		fatal(err)
	}
	fmt.Print(bench)
	if jsonOut {
		data, err := bench.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile("BENCH_server.json", append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "wrote BENCH_server.json")
	}
	if !bench.Pass {
		fmt.Fprintln(os.Stderr, "ppbench: multi-session server bench diverged or misbehaved")
		os.Exit(1)
	}
}

// parseSessions turns "1,2,4,8" into session counts.
func parseSessions(list string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(list, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sessions entry %q", s)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sessions lists no session counts")
	}
	return out, nil
}

// marshalSweep renders one bench as a single object (the historical file
// shape) and a multi-scale sweep as an array.
func marshalSweep(payloads []any) ([]byte, error) {
	if len(payloads) == 1 {
		return json.MarshalIndent(payloads[0], "", "  ")
	}
	return json.MarshalIndent(payloads, "", "  ")
}

func experimentIDs() []string {
	h := &harness.Harness{}
	ids := make([]string, 0, 12)
	for id := range h.Experiments() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppbench:", err)
	os.Exit(1)
}
