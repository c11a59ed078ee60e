// Command ppsql is an interactive SQL shell over the benchmark database.
// Statements are optimized with Predicate Migration by default; meta
// commands switch algorithms and toggle predicate caching:
//
//	\algo pushdown|pullup|pullrank|migration|ldl|ldl-ikkbz|exhaustive|robust|naive
//	\caching on|off
//	\transfer on|off
//	\feedback on|off
//	\tables   \funcs   \help   \q
//
// Prefix a query with EXPLAIN to see its plan without running it, or with
// COMPARE to run it under every algorithm and tabulate relative costs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"predplace"
	"predplace/internal/shell"
)

func main() {
	scale := flag.Float64("scale", 0.05, "database scale factor")
	caching := flag.Bool("caching", false, "start with predicate caching enabled")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock deadline (e.g. 5s; 0 = none)")
	profile := flag.Bool("profile", false, "profile every query and print the per-operator tree as JSON")
	transfer := flag.Bool("transfer", false, "start with predicate transfer (Bloom pre-filtering) enabled")
	feedback := flag.Bool("feedback", false, "start with feedback-driven statistics enabled")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "loading benchmark database at scale %.3f…\n", *scale)
	db, err := predplace.Open(predplace.Config{Scale: *scale, Caching: *caching, Timeout: *timeout, Profile: *profile, Transfer: *transfer, Feedback: *feedback})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppsql:", err)
		os.Exit(1)
	}
	sess := shell.New(db)
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("ppsql> ")
	for in.Scan() {
		if !sess.Execute(in.Text(), os.Stdout) {
			return
		}
		fmt.Print("ppsql> ")
	}
}
