package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked package of the repository.
type Package struct {
	// Path is the import path (module path + relative directory).
	Path string
	// Dir is the absolute directory holding the package's files.
	Dir string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries expression types, definitions, uses, and selections.
	Info *types.Info
}

// LoadRepo parses and type-checks every non-test package under root (a
// directory containing go.mod), resolving intra-module imports from source
// and standard-library imports through the stdlib source importer. No
// external tooling and no x/tools — parser + types only.
func LoadRepo(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	byPath := map[string]*Package{}
	var order []string
	for _, dir := range dirs {
		files, err := parseDir(fset, dir)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		byPath[path] = &Package{Path: path, Dir: dir, Fset: fset, Files: files}
		order = append(order, path)
	}

	sorted, err := topoSort(module, byPath, order)
	if err != nil {
		return nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	imp := &repoImporter{module: module, pkgs: byPath, std: std}
	for _, path := range sorted {
		pkg := byPath[path]
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(path, fset, pkg.Files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		pkg.Types, pkg.Info = tpkg, info
	}

	out := make([]*Package, 0, len(sorted))
	for _, path := range sorted {
		out = append(out, byPath[path])
	}
	return out, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			mod := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(mod); err == nil {
				mod = unq
			}
			if mod != "" {
				return mod, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// packageDirs lists every directory under root that may hold a package,
// skipping VCS metadata, testdata, and underscore/dot directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// parseDir parses the non-test .go files of one directory that the default
// build context selects (nil if none): of two files behind opposite build
// tags, the one a plain `go build` compiles.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// topoSort orders the module's packages so every package follows its
// intra-module dependencies.
func topoSort(module string, byPath map[string]*Package, order []string) ([]string, error) {
	deps := map[string][]string{}
	for _, path := range order {
		for _, f := range byPath[path].Files {
			for _, spec := range f.Imports {
				ip, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					continue
				}
				if ip == module || strings.HasPrefix(ip, module+"/") {
					deps[path] = append(deps[path], ip)
				}
			}
		}
	}
	sort.Strings(order)
	var sorted []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		for _, d := range deps[path] {
			if _, ok := byPath[d]; !ok {
				return fmt.Errorf("lint: %s imports %s, which is not in the module", path, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = 2
		sorted = append(sorted, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return sorted, nil
}

// repoImporter resolves intra-module imports to the packages type-checked by
// LoadRepo and delegates everything else (the standard library) to the
// stdlib source importer.
type repoImporter struct {
	module string
	pkgs   map[string]*Package
	std    types.Importer
}

// Import implements types.Importer.
func (r *repoImporter) Import(path string) (*types.Package, error) {
	if path == r.module || strings.HasPrefix(path, r.module+"/") {
		pkg, ok := r.pkgs[path]
		if !ok || pkg.Types == nil {
			return nil, fmt.Errorf("lint: package %s not loaded (import cycle or missing dir)", path)
		}
		return pkg.Types, nil
	}
	return r.std.Import(path)
}
