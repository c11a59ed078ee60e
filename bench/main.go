// Command bench is this repository's benchmark: five workloads, the same
// end-to-end metrics on each, and per-layer metrics from a separate traced
// pass. README.md explains the workloads and how the metrics interact;
// ../BENCHMARK.json is the contract later changes are held to.
//
//	go run -C bench . -seed 1                      every workload, both passes
//	go run -C bench . -workload plan_only -trace 0  one workload, end to end
//	go run -C bench . -compare A.json B.json        hold B to A within the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runHeader opens result.json: where and how the numbers were taken.
type runHeader struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"GOMAXPROCS"`
	C          int     `json:"C"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"pass_seconds"`
	Load       string  `json:"load"`
	Quick      bool    `json:"quick,omitempty"`
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Name     string    `json:"name"`
	Scale    float64   `json:"scale"`
	Clients  int       `json:"clients"`
	Measured *measured `json:"end_to_end,omitempty"`
	Traced   *traced   `json:"per_layer,omitempty"`
}

type resultFile struct {
	Header    runHeader         `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinArg {
		n, err := strconv.Atoi(os.Args[2])
		if err != nil {
			os.Exit(2)
		}
		keepAwakeChild(n)
		return
	}
	os.Exit(run())
}

// run is main proper; it returns the exit code so that deferred clean-up
// (stopping the keep-awake child) happens on every path.
func run() int {
	var (
		wlName    = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Int64("seed", 1, "seed of the server_mix request generator")
		seconds   = flag.Float64("seconds", runSeconds, "length of a pass")
		trace     = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced pass only; with -workload, the result is the last line, as JSON")
		quick     = flag.Bool("quick", false, "smoke-test sizes: small scale, 3 rounds / 200 requests")
		scale     = flag.Float64("scale", 0, "override every workload's scale (no golden outcomes then)")
		outDir    = flag.String("out", "out", "directory for result.json and trace files")
		specPath  = flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
		compare   = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		updGolden = flag.Bool("update-golden", false, "run the committed scales and rewrite golden.json in the current directory (bench/)")
		writeSpec = flag.Bool("write-spec", false, "write the BENCHMARK.json this source defines to -spec")
		repeat    = flag.Int("repeat", 1, "repeat each end-to-end pass N times; result.json keeps every repeat and reports medians")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *writeSpec:
			return currentSpec().write(*specPath)
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("usage: -compare A.json B.json")
			}
			ok, err := compareFiles(*specPath, flag.Arg(0), flag.Arg(1))
			if err == nil && !ok {
				err = errRegressed
			}
			return err
		case *updGolden:
			return updateGolden(&env{c: min(runtime.NumCPU(), 4)}, "golden.json")
		}
		return benchmark(options{
			workload: *wlName, seed: *seed, seconds: *seconds, trace: *trace, quick: *quick,
			scale: *scale, outDir: *outDir, repeat: *repeat,
		})
	}()
	switch err {
	case nil:
		return 0
	case errRegressed, errIncorrect:
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

var (
	errRegressed = errors.New("a metric regressed beyond its bound")
	errIncorrect = errors.New("an operation failed its check")
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	scale    float64
	outDir   string
	repeat   int
}

// benchmark runs the selected workloads and reports.
func benchmark(o options) error {

	nproc := runtime.NumCPU()
	c := min(nproc, 4)
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > nproc {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d processors present: refusing to time an oversubscribed run", v, nproc)
	}
	runtime.GOMAXPROCS(c)

	golden, err := loadGolden()
	if err != nil {
		return err
	}
	e := &env{c: c, quick: o.quick, seed: o.seed, scale: o.scale, golden: golden}
	dur := time.Duration(o.seconds * float64(time.Second))

	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}

	stop, err := startKeepAwake(nproc)
	if err != nil {
		return fmt.Errorf("keep-awake child: %w", err)
	}
	defer stop()

	res := &resultFile{Header: runHeader{
		NProc: nproc, GOMAXPROCS: c, C: c, GoVersion: runtime.Version(), Commit: gitCommit(),
		Seed: o.seed, Seconds: o.seconds, Load: "closed loop", Quick: o.quick,
	}}
	correct := true
	for _, w := range selected {
		wr := &workloadResult{Name: w.name, Scale: scaleOf(w, e), Clients: w.clients(c)}
		res.Workloads = append(res.Workloads, wr)
		if o.trace != 1 {
			var runs []*measured
			for r := 0; r < max(o.repeat, 1); r++ {
				m, err := runMeasured(w, e, dur)
				if err != nil {
					return err
				}
				runs = append(runs, m)
				runtime.GC()
			}
			wr.Measured = mergeRuns(runs)
			correct = correct && wr.Measured.Failed == 0
		}
		runtime.GC()
		if o.trace != 0 {
			tdur := dur
			if o.trace < 0 {
				tdur = dur / 3 // beside a measured pass, the traced one is shorter
			}
			if wr.Traced, err = runTraced(w, e, tdur, o.outDir); err != nil {
				return err
			}
			correct = correct && wr.Traced.Failed == 0
		}
		runtime.GC()
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	printReport(res)
	if o.workload != "" && o.trace >= 0 {
		if err := printContractLine(res.Workloads[0], o.trace); err != nil {
			return err
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func scaleOf(w *workload, e *env) float64 {
	switch {
	case e.scale > 0:
		return e.scale
	case e.quick:
		return w.quickScale
	}
	return w.scale
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printReport prints every metric by name with its unit; percentiles carry
// the number of samples behind them.
func printReport(res *resultFile) {
	h := res.Header
	fmt.Printf("nproc=%d GOMAXPROCS=%d C=%d %s commit=%s seed=%d pass=%gs %s\n",
		h.NProc, h.GOMAXPROCS, h.C, h.GoVersion, h.Commit, h.Seed, h.Seconds, h.Load)
	for _, wr := range res.Workloads {
		fmt.Printf("\n== %s  scale=%g clients=%d\n", wr.Name, wr.Scale, wr.Clients)
		if m := wr.Measured; m != nil {
			for _, s := range endToEnd {
				note := ""
				if strings.HasPrefix(s.Name, "op_ms_p") {
					note = fmt.Sprintf("  (n=%d)", m.Samples)
				}
				fmt.Printf("  %-28s %14.6g %-6s%s\n", s.Name, m.Metrics[s.Name], s.Unit, note)
			}
			for _, name := range []string{"op_ms_p90", "op_ms_p99"} {
				if v, ok := m.Tail[name]; ok {
					fmt.Printf("  %-28s %14.6g %-6s  (n=%d, no bound)\n", name, v, "ms", m.Samples)
				}
			}
			fmt.Printf("  %-28s %14.6g %-6s  (%d of %d ops)\n", "failed_share",
				float64(m.Failed)/float64(m.Attempted), "share", m.Failed, m.Attempted)
			if m.Failure != "" {
				fmt.Printf("  first failure: %s\n", m.Failure)
			}
		}
		if t := wr.Traced; t != nil {
			fmt.Printf("  -- per layer (traced pass, n=%d ops; probes)\n", t.Samples)
			for _, s := range perLayer {
				fmt.Printf("  %-28s %14.6g %s\n", s.Name, t.Metrics[s.Name], s.Unit)
			}
			if t.Failure != "" {
				fmt.Printf("  first failure: %s\n", t.Failure)
			}
		}
	}
}

// printContractLine prints the one-object result the benchmark driver reads
// from the last line of standard output.
func printContractLine(wr *workloadResult, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	specs, got := endToEnd, map[string]float64(nil)
	if trace == 1 {
		specs, got = perLayer, wr.Traced.Metrics
		line.Attempted, line.Failed = wr.Traced.Attempted, wr.Traced.Failed
	} else {
		got = wr.Measured.Metrics
		line.Attempted, line.Failed = wr.Measured.Attempted, wr.Measured.Failed
	}
	line.Correct = line.Failed == 0
	for _, s := range specs {
		line.Metrics[s.Name] = value{got[s.Name], s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
