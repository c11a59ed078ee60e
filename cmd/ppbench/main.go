// Command ppbench regenerates every table and figure of "Practical Predicate
// Placement" (Hellerstein, SIGMOD 1994) against the reproduction's benchmark
// database, plus the repository's extension experiments.
//
// Usage:
//
//	ppbench [-scale 0.1] [-exp all|<id>]
//	ppbench -list
//
// Measurements are charged costs in random-I/O units (page I/Os plus
// function invocations × per-call cost — the paper's methodology), reported
// relative to the best plan per query. Each experiment ends in shape checks
// — the paper's qualitative claims, or the extension's — and ppbench exits
// nonzero when one fails. Wall time is measured by bench/ (see its README),
// and that no execution knob changes an answer is asserted by the knob
// lattice in the root package's tests; neither is ppbench's job.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"predplace/internal/harness"
)

func main() {
	ids := "all " + strings.Join(harness.ExperimentIDs(), " ")
	scale := flag.Float64("scale", 0.1, "database scale factor (1.0 = the paper's ~110 MB)")
	exp := flag.String("exp", "all", "experiment id: "+ids)
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println("experiments:", ids)
		return
	}

	fmt.Fprintf(os.Stderr, "building benchmark database at scale %.3f…\n", *scale)
	h, err := harness.New(*scale)
	if err != nil {
		fatal(err)
	}
	reports, err := h.Run(*exp)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppbench:", err)
	os.Exit(1)
}
