package lint

import (
	"go/ast"
	"strings"
)

// profileCleanPathFragments restricts profileclean to the executor, whose
// operator contract the check protects.
var profileCleanPathFragments = []string{"internal/exec"}

// ProfileCleanAnalyzer guards the executor's allocation-free hot path: with
// profiling off, NextBatch must not allocate per call, or the default path's
// allocation counts — which the batch benchmark gates on — silently
// regress. The check is syntactic: inside an iterator method named
// NextBatch, a make, new, or slice/map composite literal is flagged
// unless it sits under an if statement whose condition reads cap, len, or a
// nil comparison (the grow-once idiom: allocate only when a reused buffer is
// too small, never on the steady state). Allocation that is genuinely per
// call belongs in Open, a helper with its own amortization, or behind the
// profiling gate — profIter itself must stay allocation-free too, since it
// wraps every operator when profiling is on.
var ProfileCleanAnalyzer = &Analyzer{
	Name: "profileclean",
	Doc:  "flags per-call allocation in exec NextBatch outside the grow-once idiom",
	Run:  runProfileClean,
}

func runProfileClean(pass *Pass) error {
	if !pathMatchesAny(pass.Pkg.Path, profileCleanPathFragments) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		name := pass.Pkg.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Body == nil {
				continue
			}
			if fn.Name.Name != "NextBatch" {
				continue
			}
			checkHotPathAllocs(pass, fn)
		}
	}
	return nil
}

// checkHotPathAllocs flags allocation expressions in a hot-path method body
// that are not under a grow-once guard.
func checkHotPathAllocs(pass *Pass, fn *ast.FuncDecl) {
	inspectWithStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		var what string
		switch t := n.(type) {
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok && (id.Name == "make" || id.Name == "new") {
				what = id.Name
			}
		case *ast.CompositeLit:
			// Only composite literals that heap-allocate a container: slice
			// and map literals. Struct literals are usually stack values
			// (storage.TID{}, IOStats snapshots); taking their address is
			// caught when it escapes via make/new-style growth anyway.
			switch t.Type.(type) {
			case *ast.ArrayType, *ast.MapType:
				what = "composite literal"
			}
		}
		if what == "" {
			return true
		}
		if underGrowOnceGuard(stack) {
			return true
		}
		pass.Reportf(n.Pos(),
			"%s %s allocates on every call; with profiling off the hot path must stay allocation-free — use the grow-once idiom (allocate under an if cap/len/nil check) or move the allocation to Open",
			fn.Name.Name, what)
		return true
	})
}

// underGrowOnceGuard reports whether any enclosing if statement's condition
// consults cap or len or compares against nil — the shapes of the grow-once
// idiom (`if cap(buf) < want { buf = make(...) }`, `if x == nil { ... }`).
func underGrowOnceGuard(stack []ast.Node) bool {
	for _, n := range stack {
		ifStmt, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		if condChecksCapacity(ifStmt.Cond) {
			return true
		}
	}
	return false
}

// condChecksCapacity reports whether an if condition contains a cap or len
// call or a nil comparison.
func condChecksCapacity(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		case *ast.Ident:
			if t.Name == "nil" {
				found = true
			}
		}
		return !found
	})
	return found
}
