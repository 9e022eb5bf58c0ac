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

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Rel   string // module-relative directory ("" = module root)
	Path  string // full import path
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is a fully loaded module: every non-test package parsed and
// type-checked against a shared FileSet.
type Module struct {
	Root string // absolute directory of go.mod (or fixture root)
	Path string // module path
	Fset *token.FileSet
	Pkgs []*Package // sorted by Rel
}

// LoadModule loads the module rooted at root, reading the module path
// from root/go.mod.
func LoadModule(root string) (*Module, error) {
	path, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadTree(root, path)
}

// LoadTree loads every package under root as if root were the root of a
// module named modPath. It is the fixture-friendly variant of LoadModule:
// the test harness points it at testdata trees that carry no go.mod but
// mirror the real module's directory layout, so scope-gated analyzers see
// the same module-relative paths as in production runs.
//
// Test files (_test.go), files excluded by build constraints on this
// platform, testdata, vendor, and hidden directories are skipped: the
// analyzers guard shipped library code.
func LoadTree(root, modPath string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	m := &Module{Root: root, Path: modPath, Fset: fset}

	parsed := map[string][]*ast.File{} // rel -> files
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		// Only the files go build compiles here: a package may split a
		// function across _linux/_other files or //go:build lines.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parse: %w", err)
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if rel == "." {
			rel = ""
		}
		parsed[rel] = append(parsed[rel], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	rels := make([]string, 0, len(parsed))
	for rel := range parsed {
		rels = append(rels, rel)
	}
	sort.Strings(rels)

	// Type-check in dependency order so intra-module imports resolve from
	// the local cache; everything else (stdlib) goes through the source
	// importer.
	imp := &moduleImporter{
		std:   importer.ForCompiler(fset, "source", nil),
		local: map[string]*types.Package{},
		mod:   modPath,
	}
	order, err := topoSort(modPath, rels, parsed)
	if err != nil {
		return nil, err
	}
	for _, rel := range order {
		pkg, err := checkPackage(fset, modPath, rel, parsed[rel], imp)
		if err != nil {
			return nil, err
		}
		imp.local[pkg.Path] = pkg.Types
		m.Pkgs = append(m.Pkgs, pkg)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Rel < m.Pkgs[j].Rel })
	return m, nil
}

func checkPackage(fset *token.FileSet, modPath, rel string, files []*ast.File, imp types.Importer) (*Package, error) {
	// Files are walked in lexical order already; keep them sorted by
	// filename so diagnostics are stable run to run.
	sort.Slice(files, func(i, j int) bool {
		return fset.Position(files[i].Pos()).Filename < fset.Position(files[j].Pos()).Filename
	})
	path := importPath(modPath, rel)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Rel: rel, Path: path, Files: files, Types: tpkg, Info: info}, nil
}

func importPath(modPath, rel string) string {
	if rel == "" {
		return modPath
	}
	return modPath + "/" + rel
}

// topoSort orders the module-relative package dirs so every package is
// checked after its intra-module imports.
func topoSort(modPath string, rels []string, parsed map[string][]*ast.File) ([]string, error) {
	byPath := map[string]string{} // import path -> rel
	for _, rel := range rels {
		byPath[importPath(modPath, rel)] = rel
	}
	const (
		white = iota
		grey
		black
	)
	state := map[string]int{}
	var order []string
	var visit func(rel string) error
	visit = func(rel string) error {
		switch state[rel] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("import cycle through %s", importPath(modPath, rel))
		}
		state[rel] = grey
		for _, f := range parsed[rel] {
			for _, spec := range f.Imports {
				p := strings.Trim(spec.Path.Value, `"`)
				if dep, ok := byPath[p]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[rel] = black
		order = append(order, rel)
		return nil
	}
	for _, rel := range rels {
		if err := visit(rel); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter serves intra-module imports from the packages already
// checked this load, and defers everything else to the stdlib source
// importer.
type moduleImporter struct {
	std   types.Importer
	local map[string]*types.Package
	mod   string
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path == mi.mod || strings.HasPrefix(path, mi.mod+"/") {
		if p, ok := mi.local[path]; ok {
			return p, nil
		}
		return nil, fmt.Errorf("module package %s not loaded (import cycle or missing dir)", path)
	}
	return mi.std.Import(path)
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if p, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// FindModuleRoot walks upward from dir to the nearest directory holding a
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
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
