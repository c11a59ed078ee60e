package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"sync"
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
			name:     "closechain flags a skipped child iterator",
			analyzer: "closechain",
			path:     "example.com/internal/exec",
			src: `package exec
type child struct{}

func (c *child) Open() error                    { return nil }
func (c *child) NextBatch([]int) (int, error)   { return 0, nil }
func (c *child) Close() error                   { return nil }

type badJoin struct {
	left  *child
	right *child
	count int
}

func (j *badJoin) Open() error                  { return nil }
func (j *badJoin) NextBatch([]int) (int, error) { return 0, nil }
func (j *badJoin) Close() error                 { return j.left.Close() }
`,
			want:    1,
			wantSub: `child iterator field "right"`,
		},
		{
			name:     "closechain accepts closing every child including ranged slices",
			analyzer: "closechain",
			path:     "example.com/internal/exec",
			src: `package exec
type child struct{}

func (c *child) Open() error                    { return nil }
func (c *child) NextBatch([]int) (int, error)   { return 0, nil }
func (c *child) Close() error                   { return nil }

type goodJoin struct {
	left *child
	kids []*child
}

func (j *goodJoin) Open() error                  { return nil }
func (j *goodJoin) NextBatch([]int) (int, error) { return 0, nil }
func (j *goodJoin) Close() error {
	err := j.left.Close()
	for _, k := range j.kids {
		if cerr := k.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
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
			name:     "batchcontract flags call sites that blank the error",
			analyzer: "batchcontract",
			path:     "example.com/internal/exec",
			src: `package exec

type src struct{}

func (s *src) NextBatch(dst []int) (int, error) { return 0, nil }

func drain(s *src, buf []int) int {
	n, _ := s.NextBatch(buf)
	return n
}
`,
			want:    1,
			wantSub: "discards a NextBatch error",
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
		{
			name:     "ctxabort flags charging loop without abort check",
			analyzer: "ctxabort",
			path:     "example.com/internal/exec",
			src: `package exec

type env struct{}

func (e *env) ChargeSpillTuple()   {}
func (e *env) checkAbort() error   { return nil }

func build(e *env, rows []int) {
	for range rows {
		e.ChargeSpillTuple()
	}
}
`,
			want:    1,
			wantSub: "checkAbort",
		},
		{
			name:     "ctxabort accepts loop with abort on its cadence",
			analyzer: "ctxabort",
			path:     "example.com/internal/exec",
			src: `package exec

type env struct{}

func (e *env) ChargeSpillTuple()   {}
func (e *env) checkAbort() error   { return nil }

func build(e *env, rows []int) error {
	count := 0
	for range rows {
		e.ChargeSpillTuple()
		count++
		if count%1024 == 0 {
			if err := e.checkAbort(); err != nil {
				return err
			}
		}
	}
	return nil
}
`,
			want: 0,
		},
		{
			name:     "ctxabort accepts abort in a nested loop node",
			analyzer: "ctxabort",
			path:     "example.com/internal/exec",
			src: `package exec

type env struct{}

func (e *env) ChargeSynthetic(f float64) {}
func (e *env) checkAbort() error         { return nil }

func drain(e *env, batches [][]int) error {
	for _, b := range batches {
		for range b {
			e.ChargeSynthetic(1)
			if err := e.checkAbort(); err != nil {
				return err
			}
		}
	}
	return nil
}
`,
			want: 0,
		},
		{
			name:     "ctxabort ignores charge-free loops",
			analyzer: "ctxabort",
			path:     "example.com/internal/exec",
			src: `package exec

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
`,
			want: 0,
		},
		{
			name:     "ctxabort ignores packages outside exec",
			analyzer: "ctxabort",
			path:     "example.com/internal/storage",
			src: `package storage

type env struct{}

func (e *env) ChargeSpillTuple() {}

func build(e *env, rows []int) {
	for range rows {
		e.ChargeSpillTuple()
	}
}
`,
			want: 0,
		},
		{
			name:     "profileclean flags per-call make in NextBatch",
			analyzer: "profileclean",
			path:     "example.com/internal/exec",
			src: `package exec

type badIter struct{ vals []int }

func (b *badIter) NextBatch(dst [][]int) (int, error) {
	dst[0] = make([]int, 4)
	return 1, nil
}
`,
			want:    1,
			wantSub: "allocation-free",
		},
		{
			name:     "profileclean flags slice literal in NextBatch",
			analyzer: "profileclean",
			path:     "example.com/internal/exec",
			src: `package exec

type badIter struct{}

func (b *badIter) NextBatch(dst []int) (int, error) {
	tmp := []int{1, 2, 3}
	return len(tmp), nil
}
`,
			want:    1,
			wantSub: "grow-once",
		},
		{
			name:     "profileclean accepts the grow-once idiom and helpers",
			analyzer: "profileclean",
			path:     "example.com/internal/exec",
			src: `package exec

type okIter struct {
	buf  []int
	keep []bool
}

func (o *okIter) NextBatch(dst []int) (int, error) {
	if cap(o.buf) < len(dst) {
		o.buf = make([]int, len(dst))
		o.keep = make([]bool, len(dst))
	}
	if o.keep == nil {
		o.keep = make([]bool, len(dst))
	}
	return 0, nil
}

func (o *okIter) scratch(n int) []int { return make([]int, n) }

func alloc(n int) []int { return make([]int, n) }
`,
			want: 0,
		},
		{
			name:     "profileclean ignores non-iterator methods and other packages",
			analyzer: "profileclean",
			path:     "example.com/internal/storage",
			src: `package storage

type it struct{}

func (i *it) NextBatch(dst []int) (int, error) { return len(make([]int, 8)), nil }
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
	if len(all) != 10 {
		t.Fatalf("suite has %d analyzers, want 10", len(all))
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

var repoOnce struct {
	sync.Once
	pkgs []*Package
	err  error
}

// repoPackages loads and type-checks the repository once for the tests that
// run analyzers over the real source.
func repoPackages(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	repoOnce.Do(func() {
		var root string
		if root, repoOnce.err = FindModuleRoot("."); repoOnce.err == nil {
			repoOnce.pkgs, repoOnce.err = LoadRepo(root)
		}
	})
	if repoOnce.err != nil {
		t.Fatal(repoOnce.err)
	}
	return repoOnce.pkgs
}

// TestCloseChainSeesTheExecutor: closechain recognises an operator by its
// method set, so a change to the operator contract could leave it examining
// no type at all and still reporting a clean run. Over the real executor it
// must recognise every operator type, by name — and still fire on a join
// whose Close skips a child and on an exchange whose Close skips its parts.
func TestCloseChainSeesTheExecutor(t *testing.T) {
	var exec *Package
	for _, p := range repoPackages(t) {
		if p.Path == "predplace/internal/exec" {
			exec = p
		}
	}
	if exec == nil {
		t.Fatal("predplace/internal/exec not loaded")
	}
	seen := map[string]bool{}
	for _, named := range iteratorTypes(exec) {
		seen[named.Obj().Name()] = true
	}
	for _, name := range []string{
		"seqScanIter", "indexScanIter", "filterIter", "nlJoinIter", "indexNLJoinIter", "hashJoinIter",
		"mergeJoinIter", "topkIter", "limitIter", "exchangeIter", "sharedSource", "profIter",
	} {
		if !seen[name] {
			t.Errorf("closechain does not recognise internal/exec's %s as an operator type (it sees %v)", name, seen)
		}
	}
	if diags := runOn(t, "closechain", exec); len(diags) != 0 {
		t.Fatalf("internal/exec is not closechain-clean:\n%s", renderDiags(diags))
	}
	bad := fixturePkg(t, "example.com/internal/exec", `package exec
type Iterator interface {
	Open() error
	NextBatch(dst []int) (int, error)
	Close() error
}

type join struct{ outer, inner Iterator }

func (j *join) Open() error                      { return nil }
func (j *join) NextBatch(dst []int) (int, error) { return 0, nil }
func (j *join) Close() error                     { return j.outer.Close() }

type exchange struct {
	parts []Iterator
	wg    interface{ Wait() }
}

func (x *exchange) Open() error                      { return nil }
func (x *exchange) NextBatch(dst []int) (int, error) { return 0, nil }
func (x *exchange) Close() error                     { x.wg.Wait(); return nil }
`)
	diags := runOn(t, "closechain", bad)
	if len(diags) != 2 || !strings.Contains(diags[0].Message, `"inner"`) || !strings.Contains(diags[1].Message, `"parts"`) {
		t.Fatalf("a join that skips its inner child and an exchange that skips its parts: got\n%s", renderDiags(diags))
	}
}

// TestLoadRepoAndSelfLint is the dogfood test: the repository's own source
// must load, type-check, and come out clean under the full suite (real
// violations are fixed or carry a written pplint:ignore justification).
func TestLoadRepoAndSelfLint(t *testing.T) {
	pkgs := repoPackages(t)
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
