package vet

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
	"strings"
)

// Loader type-checks module packages from source using only the
// standard library: module-internal imports resolve recursively from
// the module root, everything else goes through the compiler's source
// importer. Loaded packages are cached, so shared dependencies check
// once.
type Loader struct {
	// Fset receives the positions of every parsed file.
	Fset *token.FileSet
	// ModRoot is the module's directory on disk.
	ModRoot string
	// ModPath is the module path from go.mod.
	ModPath string

	std  types.ImporterFrom
	pkgs map[string]*Package
}

// NewLoader builds a loader for the module containing dir (discovered
// by walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			modPath := modulePath(data)
			if modPath == "" {
				return nil, fmt.Errorf("vet: no module path in %s/go.mod", root)
			}
			// The source importer shells out to per-file build checks
			// that choke on cgo; the project is pure Go.
			build.Default.CgoEnabled = false
			fset := token.NewFileSet()
			return &Loader{
				Fset:    fset,
				ModRoot: root,
				ModPath: modPath,
				std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
				pkgs:    map[string]*Package{},
			}, nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("vet: no go.mod above %s", abs)
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import implements types.Importer for the type-checker's recursive
// resolution.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom routes module-internal paths to source loading and
// everything else to the standard importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// Load type-checks the module package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.ModRoot, strings.TrimPrefix(path, l.ModPath))
	return l.LoadDir(dir, path)
}

// LoadDir type-checks the package in dir under the given import path.
// It powers both module loading and analyzer tests over testdata
// packages (which the go tool itself never builds).
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	files, testFiles, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("vet: no Go source in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: typecheck %s: %w", path, err)
	}
	p := &Package{
		Fset:      l.Fset,
		Path:      path,
		Files:     files,
		TestFiles: testFiles,
		Types:     tpkg,
		Info:      info,
	}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the package's source files, splitting test files out
// for syntax-only analysis.
func (l *Loader) parseDir(dir string) (files, testFiles []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if n := e.Name(); strings.HasSuffix(n, ".go") && !e.IsDir() {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		if strings.HasSuffix(n, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	return files, testFiles, nil
}

// ModulePackages lists the import paths of every package under the
// module root, skipping testdata and hidden directories and — like the
// go tool — every directory that is the root of another module.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != l.ModRoot {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				rel, err := filepath.Rel(l.ModRoot, path)
				if err != nil {
					return err
				}
				if rel == "." {
					paths = append(paths, l.ModPath)
				} else {
					paths = append(paths, l.ModPath+"/"+filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	return paths, err
}
