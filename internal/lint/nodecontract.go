package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// nodeContractPathFragment restricts nodecontract to the plan package, where
// the Node interface and its implementations live.
var nodeContractPathFragment = "internal/plan"

// NodeContractAnalyzer enforces the plan.Node implementation contract:
//
//  1. Every struct type implementing the Node shape (methods Cols, Children,
//     Card, Cost, Describe) carries a doc comment — plan nodes are the
//     optimizer/executor interchange format and EXPLAIN's vocabulary, so an
//     undocumented node is an undocumented file format.
//  2. Cols() must not build its result by appending onto another node's
//     Cols() slice: append may write through to the child's backing array,
//     silently corrupting a sibling's column list (use a fresh slice, a
//     stored field, or plain delegation; plan.ConcatCols does the copy
//     correctly).
var NodeContractAnalyzer = &Analyzer{
	Name: "nodecontract",
	Doc:  "flags plan.Node impls missing doc comments or aliasing child Cols() slices",
	Run:  runNodeContract,
}

func runNodeContract(pass *Pass) error {
	if !strings.Contains(pass.Pkg.Path, nodeContractPathFragment) {
		return nil
	}
	pkg := pass.Pkg
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
		if _, ok := named.Underlying().(*types.Struct); !ok {
			continue
		}
		if !isNodeShape(named) {
			continue
		}
		spec, doc := typeSpecWithDoc(pkg, name)
		if spec != nil && doc == "" {
			pass.Reportf(spec.Pos(),
				"plan node %s has no doc comment; document the operator's semantics", name)
		}
		if cols := methodDecl(pkg, name, "Cols"); cols != nil {
			checkColsAliasing(pass, name, cols)
		}
	}
	return nil
}

// isNodeShape reports whether the type's pointer method set carries the
// plan.Node contract's method names with plausible shapes (Cols returning a
// slice, Children returning a slice, Card/Cost returning a float).
func isNodeShape(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	need := map[string]bool{"Cols": false, "Children": false, "Card": false, "Cost": false, "Describe": false}
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sig := fn.Type().(*types.Signature)
		switch fn.Name() {
		case "Cols", "Children":
			if sig.Results().Len() == 1 {
				if _, ok := sig.Results().At(0).Type().Underlying().(*types.Slice); ok {
					need[fn.Name()] = true
				}
			}
		case "Card", "Cost":
			if sig.Results().Len() == 1 {
				if b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
					need[fn.Name()] = true
				}
			}
		case "Describe":
			need["Describe"] = true
		}
	}
	for _, ok := range need {
		if !ok {
			return false
		}
	}
	return true
}

// typeSpecWithDoc finds a named type's TypeSpec and its effective doc
// comment (the spec's own doc, or the enclosing GenDecl's for single-spec
// declarations).
func typeSpecWithDoc(pkg *Package, name string) (*ast.TypeSpec, string) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				doc := ts.Doc.Text()
				if doc == "" && len(gd.Specs) == 1 {
					doc = gd.Doc.Text()
				}
				return ts, strings.TrimSpace(doc)
			}
		}
	}
	return nil, ""
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

// checkColsAliasing flags `append(x.Cols(), …)` patterns inside a Cols
// method body.
func checkColsAliasing(pass *Pass, typeName string, fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "append" || len(call.Args) == 0 {
			return true
		}
		if exprCallsCols(call.Args[0]) {
			pass.Reportf(call.Pos(),
				"%s.Cols appends onto a child's Cols() slice; append may alias the child's backing array — copy into a fresh slice (see plan.ConcatCols)", typeName)
		}
		return true
	})
}

// exprCallsCols reports whether the expression contains a `.Cols()` call.
func exprCallsCols(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Cols" {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
