// Package lint is a from-scratch static-analysis suite over this repository's
// own source, built exclusively on the standard library's go/ast, go/parser,
// go/types, and go/token (the repo is stdlib-only; no x/tools).
//
// The analyzers encode invariants the Go type system cannot see but the
// paper's correctness depends on:
//
//   - floatcmp:         no raw ==/!= (or switch) on float64 rank/cost values
//     in internal/cost and internal/optimizer; route
//     comparisons through the epsilon helper cost.ApproxEq.
//   - closechain:       every executor iterator's Close must close every
//     stored child iterator (resource/accounting leaks otherwise).
//   - errdrop:          no silently discarded error returns (`_ =` or bare
//     calls) outside tests.
//   - exhaustiveswitch: a switch over an enum-like named integer type must
//     either cover every declared constant or carry a
//     default clause.
//   - nodecontract:     plan.Node implementations need doc comments and must
//     not return aliased child slices from Cols().
//   - batchcontract:    exec NextBatch implementations must not retain or
//     grow their caller-owned dst buffer, must return 0 on
//     error, and call sites must not blank the error.
//   - ctxabort:         internal/exec loops that charge cost (Charge*) must
//     also observe the abort check (checkAbort), or
//     cancellation cannot interrupt them.
//   - profileclean:     exec NextBatch methods must not allocate per
//     call outside the grow-once idiom, keeping the
//     profiling-off hot path allocation-free.
//   - atomicconsistency: a field updated via sync/atomic is never accessed
//     plainly elsewhere, and typed atomic values are
//     never copied.
//
// Pin balance, lock balance and charge-once accounting in internal/storage
// are runtime invariants, held by that package's tests (DESIGN.md §15).
//
// A diagnostic can be suppressed with a `//pplint:ignore <analyzer> <reason>`
// comment on the flagged line or the line directly above it. The suppress
// audit (suppress.go) keeps directives honest: a directive without a reason
// is itself a diagnostic, as is one that names an unknown analyzer or no
// longer matches any finding (stale).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	// Pos is the resolved file:line:column position.
	Pos token.Position
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Message describes the violation and the expected fix.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the flag-facing identifier (e.g. "floatcmp").
	Name string
	// Doc is a one-line description shown by pplint -list.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the loaded, type-checked package under inspection.
	Pkg *Package
	// report collects diagnostics (set by RunAnalyzers).
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns every analyzer in the suite, in report order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		CloseChainAnalyzer,
		ErrDropAnalyzer,
		ExhaustiveSwitchAnalyzer,
		NodeContractAnalyzer,
		BatchContractAnalyzer,
		CtxAbortAnalyzer,
		ProfileCleanAnalyzer,
		AtomicConsistencyAnalyzer,
		SuppressAuditAnalyzer,
	}
}

// ByName resolves an analyzer by its flag name.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// RunAnalyzers runs the given analyzers over the given packages and returns
// the surviving diagnostics sorted by position. pplint:ignore comments are
// honoured here so every analyzer gets suppression for free; when the
// suppress audit is among the analyzers, the directives themselves are
// audited after the package's findings are known (audit diagnostics are not
// suppressible — an ignore must not silence the audit of ignores).
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	audit := false
	for _, a := range analyzers {
		if a.Name == SuppressAuditAnalyzer.Name {
			audit = true
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ignored := ignoreIndex(pkg)
		collect := func(d Diagnostic) {
			if ignored.covers(d.Pos.Filename, d.Pos.Line, d.Analyzer) {
				return
			}
			diags = append(diags, d)
		}
		ran := map[string]bool{}
		for _, a := range analyzers {
			if a.Name == SuppressAuditAnalyzer.Name {
				continue // special-cased below: needs the package's findings
			}
			ran[a.Name] = true
			pass := &Pass{Analyzer: a, Pkg: pkg, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		if audit {
			diags = append(diags, auditDirectives(ignored, ran)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// ignoreKey identifies one suppressed (file, line, analyzer) cell.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// ignoreDirective is one parsed `//pplint:ignore` comment, tracked so the
// suppress audit can demand a reason and detect staleness.
type ignoreDirective struct {
	// pos is the directive's own position.
	pos token.Position
	// names are the analyzers it silences ("*" = all).
	names []string
	// reason is the justification text after the analyzer list ("" = none).
	reason string
	// fired records which named analyzers actually had a finding silenced.
	fired map[string]bool
}

// ignores maps pplint:ignore comments to the lines they cover.
type ignores struct {
	set map[ignoreKey]*ignoreDirective
	// directives lists every parsed directive in file order for the audit.
	directives []*ignoreDirective
}

func (ig *ignores) covers(file string, line int, analyzer string) bool {
	if d := ig.set[ignoreKey{file, line, analyzer}]; d != nil {
		d.fired[analyzer] = true
		return true
	}
	if d := ig.set[ignoreKey{file, line, "*"}]; d != nil {
		d.fired["*"] = true
		return true
	}
	return false
}

// ignoreIndex scans a package's comments for `//pplint:ignore a[,b] [reason]`
// directives. A directive covers its own line and the line below it, so it
// works both as a trailing comment and as a line above the flagged statement.
func ignoreIndex(pkg *Package) *ignores {
	ig := &ignores{set: map[ignoreKey]*ignoreDirective{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "pplint:ignore") {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "pplint:ignore"))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &ignoreDirective{
					pos:    pos,
					reason: strings.TrimSpace(strings.TrimPrefix(rest, fields[0])),
					fired:  map[string]bool{},
				}
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					d.names = append(d.names, name)
					ig.set[ignoreKey{pos.Filename, pos.Line, name}] = d
					ig.set[ignoreKey{pos.Filename, pos.Line + 1, name}] = d
				}
				if len(d.names) > 0 {
					ig.directives = append(ig.directives, d)
				}
			}
		}
	}
	return ig
}

// enclosingFunc walks the path stack maintained by inspectWithStack and
// returns the innermost enclosing function declaration name ("" if none).
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// inspectWithStack is ast.Inspect with an ancestor stack passed to the
// visitor (pre-order; the stack excludes n itself).
func inspectWithStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
