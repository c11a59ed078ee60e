// Command pplint runs the repository's static-analysis suite (internal/lint)
// over every package of the module: the per-statement matchers (float
// equality, Close chains, dropped errors, enum switches, plan/exec
// contracts, abort checks, allocation-free batches, atomic consistency) and
// the suppression audit.
//
// Usage:
//
//	go run ./cmd/pplint ./...
//	go run ./cmd/pplint -skip errdrop ./...
//	go run ./cmd/pplint -only ctxabort,profileclean ./internal/...
//	go run ./cmd/pplint ./internal/exec
//	go run ./cmd/pplint -json ./... | jq .
//	go run ./cmd/pplint -list
//
// A package pattern selects as `go list` does: `./internal/exec` is that one
// package, `./internal/...` every package under internal.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 load/usage failure.
// Diagnostics print as file:line:col: [analyzer] message, or as a JSON array
// of objects with file/line/col/analyzer/message fields under -json (an
// empty run prints []). Suppress a single finding with a
// `//pplint:ignore <analyzer> <reason>` comment on or above the flagged
// line; the suppress audit requires the reason and flags stale directives.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"predplace/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pplint", flag.ContinueOnError)
	var (
		only    = fs.String("only", "", "comma-separated analyzers to run (default: all)")
		skip    = fs.String("skip", "", "comma-separated analyzers to skip")
		jsonOut = fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
		list    = fs.Bool("list", false, "list available analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pplint [-only a,b] [-skip a,b] [-json] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pplint:", err)
		return 2
	}

	// Package patterns narrow which loaded packages are inspected; the whole
	// module is always loaded (type-checking needs every dependency anyway).
	start := "."
	if fs.NArg() > 0 {
		start = strings.TrimSuffix(strings.TrimSuffix(fs.Arg(0), "..."), "/")
		if start == "" {
			start = "."
		}
	}
	root, err := lint.FindModuleRoot(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pplint:", err)
		return 2
	}
	pkgs, err := lint.LoadRepo(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pplint:", err)
		return 2
	}
	pkgs = filterPackages(pkgs, fs.Args())
	if len(pkgs) == 0 {
		fmt.Fprintf(os.Stderr, "pplint: no packages match %s\n", strings.Join(fs.Args(), " "))
		return 2
	}

	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pplint:", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "pplint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pplint: %d issue(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiagnostic is the machine-readable diagnostic shape, stable for CI and
// editor consumers.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the diagnostics as one JSON array ([] when clean).
func writeJSON(w *os.File, diags []lint.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers applies -only/-skip to the registry.
func selectAnalyzers(only, skip string) ([]*lint.Analyzer, error) {
	chosen := lint.Analyzers()
	if only != "" {
		chosen = chosen[:0]
		for _, name := range splitList(only) {
			a, ok := lint.ByName(name)
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			chosen = append(chosen, a)
		}
	}
	if skip != "" {
		skipSet := map[string]bool{}
		for _, name := range splitList(skip) {
			if _, ok := lint.ByName(name); !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			skipSet[name] = true
		}
		kept := chosen[:0]
		for _, a := range chosen {
			if !skipSet[a.Name] {
				kept = append(kept, a)
			}
		}
		chosen = kept
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return chosen, nil
}

// filterPackages keeps the packages any argument pattern matches (no
// arguments keep every package).
func filterPackages(pkgs []*lint.Package, patterns []string) []*lint.Package {
	if len(patterns) == 0 {
		return pkgs
	}
	var out []*lint.Package
	for _, pkg := range pkgs {
		// Match against the import-path tail below the module.
		tail := "."
		if _, rest, ok := strings.Cut(pkg.Path, "/"); ok {
			tail = rest
		}
		for _, p := range patterns {
			if matchPattern(tail, p) {
				out = append(out, pkg)
				break
			}
		}
	}
	return out
}

// matchPattern reports whether the package whose import path below the
// module is tail ("." for the module root) matches pattern, as `go list`
// reads it: `X/...` is X and every package under it, any other pattern
// exactly one package.
func matchPattern(tail, pattern string) bool {
	dir, tree := strings.CutSuffix(strings.TrimSuffix(pattern, "/"), "...")
	dir = strings.TrimPrefix(strings.TrimSuffix(dir, "/"), "./")
	if dir == "" {
		dir = "."
	}
	switch {
	case !tree:
		return tail == dir
	case dir == ".":
		return true
	default:
		return tail == dir || strings.HasPrefix(tail, dir+"/")
	}
}

// splitList splits a comma-separated flag value.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
