package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// fixturePkg type-checks one in-memory source file as a package with the
// given import path (the path matters: floatcmp and nodecontract are
// path-scoped). Fixtures are import-free so no importer is needed.
func fixturePkg(t *testing.T, path, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	fname := strings.ReplaceAll(strings.TrimPrefix(path, "example.com/"), "/", "_") + ".go"
	f, err := parser.ParseFile(fset, fname, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{Path: path, Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}
}

// runOn runs one analyzer over one fixture package.
func runOn(t *testing.T, analyzer string, pkg *Package) []Diagnostic {
	t.Helper()
	a, ok := ByName(analyzer)
	if !ok {
		t.Fatalf("no analyzer %q", analyzer)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	return diags
}

func TestAnalyzersFixtures(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		path     string
		src      string
		// want is the number of expected diagnostics; wantSub must appear in
		// each diagnostic message.
		want    int
		wantSub string
	}{
		{
			name:     "floatcmp flags == and switch on float",
			analyzer: "floatcmp",
			path:     "example.com/internal/cost",
			src: `package cost
func eq(a, b float64) bool { return a == b }
func ne(a, b float64) bool { return a != b }
func sw(x float64) int {
	switch x {
	case 1:
		return 1
	}
	return 0
}
`,
			want:    3,
			wantSub: "cost.ApproxEq",
		},
		{
			name:     "floatcmp exempts the epsilon helper and non-floats",
			analyzer: "floatcmp",
			path:     "example.com/internal/cost",
			src: `package cost
func ApproxEq(a, b float64) bool { return a == b }
func ints(a, b int) bool { return a == b }
func lt(a, b float64) bool { return a < b }
`,
			want: 0,
		},
		{
			name:     "floatcmp ignores packages outside cost/optimizer",
			analyzer: "floatcmp",
			path:     "example.com/internal/storage",
			src: `package storage
func eq(a, b float64) bool { return a == b }
`,
			want: 0,
		},
		{
			name:     "errdrop flags blank assigns and bare calls",
			analyzer: "errdrop",
			path:     "example.com/internal/exec",
			src: `package exec
func fallible() error       { return nil }
func pair() (int, error)    { return 0, nil }
func bad() {
	_ = fallible()
	fallible()
	_, _ = pair()
}
`,
			want:    3,
			wantSub: "error",
		},
		{
			name:     "errdrop accepts handled and deferred errors",
			analyzer: "errdrop",
			path:     "example.com/internal/exec",
			src: `package exec
func fallible() error { return nil }
func good() error {
	defer fallible()
	if err := fallible(); err != nil {
		return err
	}
	n, err := pair()
	_ = n
	return err
}
func pair() (int, error) { return 0, nil }
`,
			want: 0,
		},
		{
			name:     "errdrop honours pplint:ignore",
			analyzer: "errdrop",
			path:     "example.com/internal/exec",
			src: `package exec
func fallible() error { return nil }
func deliberate() {
	//pplint:ignore errdrop fixture says this drop is fine
	_ = fallible()
}
`,
			want: 0,
		},
		{
			name:     "exhaustiveswitch flags a missing constant",
			analyzer: "exhaustiveswitch",
			path:     "example.com/internal/plan",
			src: `package plan
type Kind uint8

const (
	KindA Kind = iota + 1
	KindB
	KindC
)

func dispatch(k Kind) string {
	switch k {
	case KindA:
		return "a"
	case KindB:
		return "b"
	}
	return "?"
}
`,
			want:    1,
			wantSub: "missing KindC",
		},
		{
			name:     "exhaustiveswitch accepts full coverage or a default",
			analyzer: "exhaustiveswitch",
			path:     "example.com/internal/plan",
			src: `package plan
type Kind uint8

const (
	KindA Kind = iota + 1
	KindB
)

func full(k Kind) string {
	switch k {
	case KindA:
		return "a"
	case KindB:
		return "b"
	}
	return "?"
}

func defaulted(k Kind) string {
	switch k {
	case KindA:
		return "a"
	default:
		return "?"
	}
}
`,
			want: 0,
		},
		{
			name:     "nodecontract flags undocumented nodes and Cols aliasing",
			analyzer: "nodecontract",
			path:     "example.com/internal/plan",
			src: `package plan

// Ref names a column.
type Ref struct{ T, C string }

type BadNode struct {
	kid  *BadNode
	cols []Ref
}

func (n *BadNode) Cols() []Ref {
	return append(n.kid.Cols(), n.cols...)
}
func (n *BadNode) Children() []*BadNode { return nil }
func (n *BadNode) Card() float64        { return 0 }
func (n *BadNode) Cost() float64        { return 0 }
func (n *BadNode) Describe() string     { return "" }
`,
			want:    2, // missing doc + aliasing append
			wantSub: "",
		},
		{
			name:     "nodecontract accepts documented nodes with fresh slices",
			analyzer: "nodecontract",
			path:     "example.com/internal/plan",
			src: `package plan

// Ref names a column.
type Ref struct{ T, C string }

// GoodNode is a documented operator that copies its column list.
type GoodNode struct {
	kid  *GoodNode
	cols []Ref
}

func (n *GoodNode) Cols() []Ref {
	out := make([]Ref, 0, len(n.cols))
	out = append(out, n.cols...)
	return out
}
func (n *GoodNode) Children() []*GoodNode { return nil }
func (n *GoodNode) Card() float64         { return 0 }
func (n *GoodNode) Cost() float64         { return 0 }
func (n *GoodNode) Describe() string      { return "good" }
`,
			want: 0,
		},
		{
			name:     "batchcontract flags dst retention, append growth, and n-with-err returns",
			analyzer: "batchcontract",
			path:     "example.com/internal/exec",
			src: `package exec

type badIter struct {
	saved []int
	err   error
}

func (b *badIter) NextBatch(dst []int) (int, error) {
	b.saved = dst[:2]
	dst = append(dst, 7)
	n := len(dst)
	if b.err != nil {
		return n, b.err
	}
	return n, nil
}
`,
			want:    3, // field retention + append(dst, ...) + return n, err
			wantSub: "NextBatch",
		},
		{
			name:     "batchcontract accepts a compliant implementation",
			analyzer: "batchcontract",
			path:     "example.com/internal/exec",
			src: `package exec

type okIter struct {
	in  *okIter
	buf []int
}

func (o *okIter) NextBatch(dst []int) (int, error) {
	n, err := o.in.NextBatch(dst)
	if err != nil {
		return 0, err
	}
	o.buf = o.buf[:0]
	for i := 0; i < n; i++ {
		dst[i] = dst[i] + 1
	}
	return n, nil
}
`,
			want: 0,
		},
		{
			name:     "batchcontract ignores packages outside exec",
			analyzer: "batchcontract",
			path:     "example.com/internal/storage",
			src: `package storage

type iter struct{ saved []int }

func (i *iter) NextBatch(dst []int) (int, error) {
	i.saved = dst
	return len(dst), nil
}
`,
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := fixturePkg(t, tc.path, tc.src)
			diags := runOn(t, tc.analyzer, pkg)
			if len(diags) != tc.want {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), tc.want, renderDiags(diags))
			}
			for _, d := range diags {
				if tc.wantSub != "" && !strings.Contains(d.Message, tc.wantSub) {
					t.Errorf("diagnostic %q does not mention %q", d.Message, tc.wantSub)
				}
				if d.Pos.Line == 0 {
					t.Errorf("diagnostic %q has no line number", d)
				}
			}
		})
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

func TestSuiteRegistry(t *testing.T) {
	all := Analyzers()
	if len(all) != 6 {
		t.Fatalf("suite has %d analyzers, want 6", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if got, ok := ByName(a.Name); !ok || got != a {
			t.Errorf("ByName(%q) failed to round-trip", a.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName should reject unknown names")
	}
}

// TestLoadRepoAndSelfLint is the dogfood test: the repository's own source
// must load, type-check, and come out clean under the full suite (real
// violations are fixed or carry a written pplint:ignore justification).
func TestLoadRepoAndSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadRepo(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) > 0 {
		t.Errorf("repository is not pplint-clean:\n%s", renderDiags(diags))
	}
}
