// Command ppexplain shows the plan every placement algorithm chooses for one
// SQL query over the benchmark database, with estimated costs — the fastest
// way to see the algorithms disagree.
//
// Usage:
//
//	ppexplain [-scale 0.05] [-caching] 'SELECT * FROM t3, t10 WHERE t3.ua1 = t10.ua1 AND costly100(t10.u20)'
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"predplace"
)

func main() {
	scale := flag.Float64("scale", 0.05, "database scale factor")
	caching := flag.Bool("caching", false, "plan with predicate caching enabled")
	transfer := flag.Bool("transfer", false, "plan and run with predicate transfer (Bloom pre-filtering) enabled")
	run := flag.Bool("run", false, "also execute each plan and report charged costs")
	analyze := flag.Bool("analyze", false, "execute each plan and annotate nodes with est/actual rows (EXPLAIN ANALYZE)")
	jsonOut := flag.Bool("json", false, "with -analyze, also print each per-operator profile tree as JSON")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ppexplain [flags] 'SELECT …'")
		os.Exit(2)
	}
	sql := flag.Arg(0)

	db, err := predplace.Open(predplace.Config{Scale: *scale, Caching: *caching, Transfer: *transfer})
	if err != nil {
		fatal(err)
	}

	if *analyze {
		for _, a := range predplace.Algorithms() {
			res, err := db.Query("EXPLAIN ANALYZE "+sql, a)
			if err != nil {
				fatal(fmt.Errorf("%v: %w", a, err))
			}
			fmt.Printf("-- %s\n%s\n", a, res.Plan)
			if *jsonOut && res.Profile != nil {
				buf, err := json.MarshalIndent(res.Profile, "", "  ")
				if err != nil {
					fatal(err)
				}
				fmt.Printf("%s\n", buf)
			}
		}
		return
	}
	if *run {
		algos := predplace.Algorithms()
		results, err := db.CompareAll(sql, algos...)
		if err != nil {
			fatal(err)
		}
		for i, a := range algos {
			fmt.Printf("-- %s (est %.0f, charged %.0f)\n%s\n",
				a, results[i].EstCost, results[i].Stats.Charged(), results[i].Plan)
		}
		fmt.Println(predplace.FormatComparison(algos, results))
		return
	}
	for _, a := range predplace.Algorithms() {
		p, err := db.Explain(sql, a)
		if err != nil {
			fatal(fmt.Errorf("%v: %w", a, err))
		}
		fmt.Printf("-- %s\n%s\n", a, p)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppexplain:", err)
	os.Exit(1)
}
