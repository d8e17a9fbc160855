package analysis

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

// A Unit is one type-checked analysis target: either a package
// together with its in-package _test.go files, or an external
// <pkg>_test package. Analyzers see each source file exactly once
// across all units.
type Unit struct {
	// Path is the unit's import path; external test packages carry the
	// conventional ".test" suffix on top of the package path.
	Path string
	Dir  string
	Fset *token.FileSet
	// Files holds the unit's parsed files in filename order.
	Files []*ast.File
	// TestFiles marks which of Files came from _test.go sources.
	TestFiles map[*ast.File]bool
	Pkg       *types.Package
	Info      *types.Info
}

// A Loader parses and type-checks packages of a single module using
// only the standard library: intra-module imports are resolved by
// type-checking their source directories (memoized, cycle-checked),
// everything else goes through go/importer — compiled export data
// first, the source importer as fallback.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	// buildCtx decides which files belong to the build (GOOS/GOARCH
	// suffixes, //go:build constraints), mirroring the go tool's default
	// context: tags like "race" are unset, so exactly one file of a
	// tag-guarded pair is loaded.
	buildCtx build.Context

	std    types.Importer
	srcImp types.Importer

	canon map[string]*canonPkg
}

type canonPkg struct {
	loading bool
	pkg     *types.Package
	err     error
}

// NewLoader returns a loader for the module rooted at dir (the
// directory containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module directive in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modPath,
		buildCtx:   build.Default,
		std:        importer.Default(),
		srcImp:     importer.ForCompiler(fset, "source", nil),
		canon:      make(map[string]*canonPkg),
	}, nil
}

// Fset returns the loader's file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// ModulePath returns the module path from go.mod.
func (l *Loader) ModulePath() string { return l.modulePath }

// Import implements types.Importer: module-internal paths are
// type-checked from source, all others delegate to go/importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		return l.loadCanonical(path, filepath.Join(l.moduleRoot, filepath.FromSlash(rel)))
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	return l.srcImp.Import(path)
}

// loadCanonical type-checks the non-test files of the package in dir,
// memoized by import path. It is what other packages see when they
// import path.
func (l *Loader) loadCanonical(path, dir string) (*types.Package, error) {
	if c, ok := l.canon[path]; ok {
		if c.loading {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return c.pkg, c.err
	}
	c := &canonPkg{loading: true}
	l.canon[path] = c
	base, _, _, err := l.parseDir(dir)
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("analysis: no non-test Go files in %s", dir)
	}
	if err == nil {
		c.pkg, _, err = l.check(path, base, nil)
	}
	c.err = err
	c.loading = false
	return c.pkg, c.err
}

// parseDir parses every .go file in dir (non-recursive) that the
// default build context would compile, split into the base package's
// files, its in-package test files, and external (_test-suffixed
// package) test files. Build-constraint evaluation matters: tag pairs
// like //go:build race / !race declare the same symbol in two files,
// and only one of them belongs to any given build.
func (l *Loader) parseDir(dir string) (base, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if ok, merr := l.buildCtx.MatchFile(dir, n); merr != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		case strings.HasSuffix(n, "_test.go"):
			inTest = append(inTest, f)
		default:
			base = append(base, f)
		}
	}
	return base, inTest, extTest, nil
}

// check type-checks files as package path. Extra test files, if any,
// are appended after the base files.
func (l *Loader) check(path string, files, extra []*ast.File) (*types.Package, *types.Info, error) {
	all := append(append([]*ast.File(nil), files...), extra...)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, all, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// LoadUnits loads analysis units for every package directory under
// each of roots (recursing when a root ends in "/..."), relative to
// the module root. testdata (fixtures and fuzz corpora), vendor, dot,
// and underscore directories are never loaded — not even when a root
// names one of them explicitly — mirroring the go tool. Generated
// files participate in type-checking but are excluded from the
// analyzed file set.
func (l *Loader) LoadUnits(roots ...string) ([]*Unit, error) {
	dirs, err := l.expandDirs(roots)
	if err != nil {
		return nil, err
	}
	var units []*Unit
	for _, dir := range dirs {
		u, err := l.loadDirUnits(dir)
		if err != nil {
			return nil, err
		}
		units = append(units, u...)
	}
	return units, nil
}

func (l *Loader) expandDirs(roots []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, root := range roots {
		if root == "" {
			root = "./..."
		}
		recursive := false
		if strings.HasSuffix(root, "/...") || root == "..." {
			recursive = true
			root = strings.TrimSuffix(strings.TrimSuffix(root, "..."), "/")
			if root == "" || root == "." {
				root = "."
			}
		}
		abs := root
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(l.moduleRoot, root)
		}
		if l.underSkippedDir(abs) {
			continue
		}
		if !recursive {
			add(abs)
			continue
		}
		err := filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if p != abs && skipDirName(d.Name()) {
				return filepath.SkipDir
			}
			matches, _ := filepath.Glob(filepath.Join(p, "*.go"))
			if len(matches) > 0 {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// skipDirName reports whether a directory of this name never holds
// loadable packages: testdata trees (fixture sources and fuzz corpora),
// vendor, and dot/underscore directories, per the go tool's rules.
func skipDirName(n string) bool {
	return strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata" || n == "vendor"
}

// underSkippedDir reports whether dir lies inside a skipped directory,
// judged by path components relative to the module root. It guards
// explicit roots ("lint ./internal/analysis/testdata"), which bypass
// the recursive walk's own filtering.
func (l *Loader) underSkippedDir(dir string) bool {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return false
	}
	for _, c := range strings.Split(filepath.ToSlash(rel), "/") {
		if c == ".." || c == "." {
			continue
		}
		if skipDirName(c) {
			return true
		}
	}
	return false
}

// dropGenerated filters out files carrying the standard
// "Code generated ... DO NOT EDIT." header. Generated files stay in
// the type-check input — handwritten code may use their symbols — but
// machine-written code is not actionable lint output, so they are
// excluded from the file set analyzers see.
func dropGenerated(files []*ast.File) []*ast.File {
	out := make([]*ast.File, 0, len(files))
	for _, f := range files {
		if !ast.IsGenerated(f) {
			out = append(out, f)
		}
	}
	return out
}

// loadDirUnits builds the units for one package directory: the base
// package augmented with its in-package test files, plus the external
// test package if present.
func (l *Loader) loadDirUnits(dir string) ([]*Unit, error) {
	base, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(base) == 0 && len(inTest) == 0 && len(extTest) == 0 {
		return nil, nil
	}
	path := l.importPathFor(dir)
	var units []*Unit
	var augmented *types.Package

	if len(base) > 0 || len(inTest) > 0 {
		// Make sure the canonical (import-visible) form is memoized
		// before checking the augmented form, so importers of this
		// package never see test-file symbols.
		if len(base) > 0 {
			if _, err := l.loadCanonical(path, dir); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", path, err)
			}
		}
		pkg, info, err := l.check(path, base, inTest)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", path, err)
		}
		augmented = pkg
		units = append(units, l.newUnit(path, dir, pkg, info, base, inTest))
	}

	if len(extTest) > 0 {
		// External test packages compile against the test variant of
		// the package under test (the go tool does the same), so that
		// export_test.go-style helpers resolve. Temporarily swap the
		// memoized entry, then restore it.
		saved, hadSaved := l.canon[path]
		if augmented != nil {
			l.canon[path] = &canonPkg{pkg: augmented}
		}
		pkg, info, err := l.check(path+".test", extTest, nil)
		if hadSaved {
			l.canon[path] = saved
		} else {
			delete(l.canon, path)
		}
		if err != nil {
			return nil, fmt.Errorf("analysis: %s [external test]: %w", path, err)
		}
		units = append(units, l.newUnit(path+".test", dir, pkg, info, nil, extTest))
	}
	return units, nil
}

// newUnit assembles a unit from its type-checked non-test and test
// files, leaving generated files out of the analyzed set.
func (l *Loader) newUnit(path, dir string, pkg *types.Package, info *types.Info, base, tests []*ast.File) *Unit {
	base, tests = dropGenerated(base), dropGenerated(tests)
	u := &Unit{
		Path:      path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     append(append([]*ast.File(nil), base...), tests...),
		TestFiles: make(map[*ast.File]bool, len(tests)),
		Pkg:       pkg,
		Info:      info,
	}
	for _, f := range tests {
		u.TestFiles[f] = true
	}
	return u
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.moduleRoot, dir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}
