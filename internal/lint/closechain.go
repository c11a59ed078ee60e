package lint

import (
	"go/ast"
	"go/types"
)

// CloseChainAnalyzer enforces the executor's resource contract: any struct
// type implementing the operator contract (Open() error, NextBatch([]Row)
// (int, error), and Close() error) whose fields store child iterators must
// call Close on every such field somewhere inside its own Close method. A
// skipped child leaks heap-file cursors and — worse for the paper's
// methodology — lets a child's buffered I/O accounting escape the
// charged-cost measurement.
//
// Child-iterator fields are fields whose type (interface or concrete,
// including slices of either) itself exposes the iterator shape.
var CloseChainAnalyzer = &Analyzer{
	Name: "closechain",
	Doc:  "flags iterator types whose Close skips a stored child iterator's Close",
	Run:  runCloseChain,
}

func runCloseChain(pass *Pass) error {
	pkg := pass.Pkg
	for _, named := range iteratorTypes(pkg) {
		name := named.Obj().Name()
		st := named.Underlying().(*types.Struct)
		// Collect child-iterator fields.
		var children []*types.Var
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			ft := f.Type()
			if sl, ok := ft.Underlying().(*types.Slice); ok {
				ft = sl.Elem()
			}
			if isIteratorShape(ft) {
				children = append(children, f)
			}
		}
		if len(children) == 0 {
			continue
		}
		closeDecl := methodDecl(pkg, name, "Close")
		if closeDecl == nil {
			continue // Close inherited through embedding; out of scope
		}
		closed := closedFields(pkg, closeDecl)
		for _, f := range children {
			if !closed[f] {
				pass.Reportf(closeDecl.Name.Pos(),
					"%s.Close does not close child iterator field %q; every stored child iterator must be closed", name, f.Name())
			}
		}
	}
	return nil
}

// iteratorTypes returns the package's struct types that carry the operator
// contract — the types closechain examines, so a test can tell a clean run
// from one that recognised nothing.
func iteratorTypes(pkg *Package) []*types.Named {
	var out []*types.Named
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); ok && isIteratorShape(named) {
			out = append(out, named)
		}
	}
	return out
}

// isIteratorShape reports whether t's method set (through a pointer, for
// concrete types) carries the operator contract: Open() error, NextBatch
// over one slice returning (int, error), and Close() error.
func isIteratorShape(t types.Type) bool {
	ms := types.NewMethodSet(t)
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			ms = types.NewMethodSet(types.NewPointer(t))
		}
	}
	var open, next, close_ bool
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		switch fn.Name() {
		case "Open":
			open = sig.Params().Len() == 0 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type())
		case "NextBatch":
			if sig.Params().Len() == 1 && sig.Results().Len() == 2 {
				_, slice := sig.Params().At(0).Type().Underlying().(*types.Slice)
				count, _ := sig.Results().At(0).Type().Underlying().(*types.Basic)
				next = slice && count != nil && count.Kind() == types.Int && isErrorType(sig.Results().At(1).Type())
			}
		case "Close":
			close_ = sig.Params().Len() == 0 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type())
		}
	}
	return open && next && close_
}

// methodDecl finds the declaration of recvType's method with the given name.
func methodDecl(pkg *Package, recvType, method string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != method || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if id, ok := t.(*ast.Ident); ok && id.Name == recvType {
				return fd
			}
		}
	}
	return nil
}

// closedFields returns the set of struct fields on which a `.Close()` call
// appears anywhere inside the method body (directly, through intermediate
// selectors, or on elements of a ranged-over slice field).
func closedFields(pkg *Package, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if fd.Body == nil {
		return out
	}
	// rangeVars maps loop variables to the slice field they iterate.
	rangeVars := map[types.Object]*types.Var{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if fv := fieldOf(pkg, rs.X); fv != nil {
				if id, ok := rs.Value.(*ast.Ident); ok {
					if obj := pkg.Info.Defs[id]; obj != nil {
						rangeVars[obj] = fv
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		if fv := fieldOf(pkg, sel.X); fv != nil {
			out[fv] = true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[id]; obj != nil {
				if fv, ok := rangeVars[obj]; ok {
					out[fv] = true
				}
			}
		}
		return true
	})
	return out
}

// fieldOf resolves an expression like `n.inner` (possibly parenthesized) to
// the struct field it selects, or nil.
func fieldOf(pkg *Package, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	if v, ok := s.Obj().(*types.Var); ok {
		return v
	}
	return nil
}
