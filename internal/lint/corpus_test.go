package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The corpus harness: every file under testdata/corpus is a standalone,
// import-free package that the whole suite runs over, so the directive
// audit sees real findings; the filename prefix up to the first underscore
// names the analyzer the file exercises.
//
// Expectations are `// want "substring"` comments: each line carrying wants
// must produce exactly those diagnostics (matched by substring), and lines
// without wants must produce none. _bad files seed violations, _good files
// are their fixed twins and must be silent; the TestCorpusCoversSuite
// meta-test pins that the suppression audit has both.

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

func TestCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	ran := 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		ran++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			runCorpusFile(t, filepath.Join(dir, name))
		})
	}
	if ran == 0 {
		t.Fatal("corpus is empty")
	}
}

// TestCorpusCoversSuite is the meta-test: the suppression audit must have at
// least one seeded-violation file that produces findings and one fixed twin
// that is silent.
func TestCorpusCoversSuite(t *testing.T) {
	dir := filepath.Join("testdata", "corpus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	kinds := map[string]map[string]bool{} // analyzer -> {"bad":, "good":}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		analyzer, rest, ok := strings.Cut(strings.TrimSuffix(name, ".go"), "_")
		if !ok {
			continue
		}
		if kinds[analyzer] == nil {
			kinds[analyzer] = map[string]bool{}
		}
		switch {
		case strings.HasPrefix(rest, "bad"):
			kinds[analyzer]["bad"] = true
		case strings.HasPrefix(rest, "good"):
			kinds[analyzer]["good"] = true
		}
	}
	for _, want := range []string{"suppress"} {
		if !kinds[want]["bad"] || !kinds[want]["good"] {
			t.Errorf("corpus lacks %s_bad*/%s_good* pair (have %v)", want, want, kinds[want])
		}
	}
}

// runCorpusFile type-checks one corpus file, runs the suite over it, and
// compares diagnostics against the file's want markers line by line.
func runCorpusFile(t *testing.T, path string) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	pkgPath := "example.com/corpus/" + strings.TrimSuffix(filepath.Base(path), ".go")

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := new(types.Config).Check(pkgPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pkg := &Package{Path: pkgPath, Dir: filepath.Dir(path), Fset: fset, Files: []*ast.File{f}, Types: tpkg, Info: info}

	diags, err := RunAnalyzers([]*Package{pkg}, Analyzers())
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	gotByLine := map[int][]string{}
	for _, d := range diags {
		gotByLine[d.Pos.Line] = append(gotByLine[d.Pos.Line], fmt.Sprintf("[%s] %s", d.Analyzer, d.Message))
	}
	wantByLine := corpusWants(t, string(src))

	for line, wants := range wantByLine {
		got := gotByLine[line]
		for _, w := range wants {
			if !anyContains(got, w) {
				t.Errorf("line %d: no diagnostic matching %q (got %v)", line, w, got)
			}
		}
		if len(got) != len(wants) {
			t.Errorf("line %d: got %d diagnostics %v, want %d matching %v", line, len(got), got, len(wants), wants)
		}
	}
	for line, got := range gotByLine {
		if _, ok := wantByLine[line]; !ok {
			t.Errorf("line %d: unexpected diagnostics %v", line, got)
		}
	}
}

// corpusWants extracts `// want "a" "b"` expectations per line. A
// `// want-below "a"` comment on its own line attaches the expectation to
// the following line instead — needed when the expected diagnostic lands on
// a line that is itself a whole-line comment (a pplint:ignore directive
// flagged by the suppress audit), where a trailing want would merge into the
// directive's own text.
func corpusWants(t *testing.T, src string) map[int][]string {
	t.Helper()
	out := map[int][]string{}
	for i, line := range strings.Split(src, "\n") {
		target := i + 1
		_, rest, ok := strings.Cut(line, "// want-below ")
		if ok {
			target = i + 2
		} else {
			_, rest, ok = strings.Cut(line, "// want ")
			if !ok {
				continue
			}
		}
		var wants []string
		for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
			wants = append(wants, m[1])
		}
		if len(wants) == 0 {
			t.Fatalf("line %d: malformed want comment %q", i+1, line)
		}
		out[target] = append(out[target], wants...)
	}
	return out
}

// anyContains reports whether any string in got contains want.
func anyContains(got []string, want string) bool {
	for _, g := range got {
		if strings.Contains(g, want) {
			return true
		}
	}
	return false
}
