package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// batchContractPathFragment restricts batchcontract to the exec package,
// where the Iterator contract and its implementations live.
var batchContractPathFragment = "internal/exec"

// BatchContractAnalyzer enforces the exec.Iterator implementation contract
// (see NextBatch's doc comment there):
//
//  1. A NextBatch method must not retain its dst buffer: assigning dst (or
//     any reslice of it) to a field keeps a caller-owned buffer alive past
//     the call, and the caller is free to recycle or overwrite it.
//  2. n must never exceed len(dst): growing dst with append silently
//     produces counts the caller's buffer cannot hold.
//  3. An error return implies n == 0: `return n, err` with a possibly
//     non-nil error hands the caller an ambiguous (rows, error) pair; every
//     error return must yield the literal 0.
//  4. Call sites must not blank a NextBatch error: the n==0-on-error
//     guarantee only helps callers that actually look at the error.
var BatchContractAnalyzer = &Analyzer{
	Name: "batchcontract",
	Doc:  "enforces the NextBatch contract: no dst retention, no dst growth, errors return n==0, call sites keep the error",
	Run:  runBatchContract,
}

func runBatchContract(pass *Pass) error {
	if !strings.Contains(pass.Pkg.Path, batchContractPathFragment) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "NextBatch" && fd.Recv != nil {
				checkNextBatchBody(pass, fd)
			}
			checkBatchCallSites(pass, fd)
		}
	}
	return nil
}

// dstParamName returns the name of a NextBatch method's buffer parameter
// (its first parameter, which the contract requires to be a slice), or ""
// when the shape does not match.
func dstParamName(fd *ast.FuncDecl) string {
	if fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
		return ""
	}
	first := fd.Type.Params.List[0]
	if _, ok := first.Type.(*ast.ArrayType); !ok {
		return ""
	}
	if len(first.Names) == 0 {
		return ""
	}
	return first.Names[0].Name
}

// isDstAlias reports whether e is the dst buffer or a reslice of it
// (dst, dst[i:j], dst[i:j:k], possibly parenthesized).
func isDstAlias(e ast.Expr, dst string) bool {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		case *ast.Ident:
			return t.Name == dst
		default:
			return false
		}
	}
}

// checkNextBatchBody enforces rules 1–3 inside one NextBatch method.
func checkNextBatchBody(pass *Pass, fd *ast.FuncDecl) {
	dst := dstParamName(fd)
	if dst == "" {
		return
	}
	recv := fd.Recv.List[0].Names
	recvName := ""
	if len(recv) > 0 {
		recvName = recv[0].Name
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range t.Lhs {
				if i >= len(t.Rhs) {
					break
				}
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if isDstAlias(t.Rhs[i], dst) {
					target := recvName
					if id, ok := sel.X.(*ast.Ident); ok {
						target = id.Name
					}
					pass.Reportf(t.Pos(),
						"NextBatch stores its dst buffer into %s.%s; dst is caller-owned and must not be retained across calls",
						target, sel.Sel.Name)
				}
			}
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "append" && len(t.Args) > 0 {
				if isDstAlias(t.Args[0], dst) {
					pass.Reportf(t.Pos(),
						"NextBatch appends to its dst buffer; n must never exceed len(dst) — write through dst[i] and return the count")
				}
			}
		case *ast.ReturnStmt:
			checkBatchReturn(pass, t)
		}
		return true
	})
}

// checkBatchReturn enforces rule 3 on one `return n, err` statement: when
// the error operand is not the nil literal, the count operand must be the
// literal 0.
func checkBatchReturn(pass *Pass, ret *ast.ReturnStmt) {
	if len(ret.Results) != 2 {
		return
	}
	if id, ok := ret.Results[1].(*ast.Ident); ok && id.Name == "nil" {
		return
	}
	if lit, ok := ret.Results[0].(*ast.BasicLit); ok && lit.Kind == token.INT && lit.Value == "0" {
		return
	}
	pass.Reportf(ret.Pos(),
		"NextBatch returns a possibly non-zero count alongside a possibly non-nil error; the contract requires `return 0, err` on every error path")
}

// checkBatchCallSites enforces rule 4: assignments that blank the error
// result of a NextBatch call.
func checkBatchCallSites(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isNextBatchCall(call) {
			return true
		}
		if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(as.Pos(),
				"call discards a NextBatch error; n==0-on-error only helps callers that check it")
		}
		return true
	})
}

// isNextBatchCall reports whether the call target is a method named
// NextBatch.
func isNextBatchCall(call *ast.CallExpr) bool {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	return ok && fun.Sel.Name == "NextBatch"
}
