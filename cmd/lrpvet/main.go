// Command lrpvet runs two checks over the repository's production code.
//
// The first flags unannotated iteration over Go maps. Go randomizes map
// iteration order, so a map `range` that feeds any deterministic
// artifact — trace output, crash images, the NVM event log, JSON
// reports — is a reproducibility bug that golden tests only catch by
// luck. The simulator's hot state
// therefore lives in ordered flat tables (internal/flat), and the few
// legitimate map walks left must say why they are safe:
//
//	// maprange:ok — aggregation is order-independent
//	for k, v := range m { ... }
//
// The annotation goes on the range line or the line above it. Any map
// range without one fails the check.
//
// Detection is per-package AST analysis without full type checking: a
// range is flagged when its operand's name is declared as a map anywhere
// in the same package directory (var/field/param declarations,
// make(map[...]), or map composite literals, in any non-test file). That
// covers the realistic regression — ranging over a struct's map field,
// possibly declared in a sibling file — without external tooling.
//
// The second flags functions no binary reaches. It builds every main
// package of the module and of each module nested in it (cmd/, examples/,
// e2ebench) with inlining off (-gcflags=all=-l), reads the functions each
// binary links with `go tool nm`, and reports every non-test function
// declaration none of them links. A function reached only from tests is
// unreached. One that stays on purpose — documented library surface, a
// fixture several packages' tests share — says why in its doc comment:
//
//	// api:keep — the counter block OBSERVABILITY.md documents
//	func (s *System) Counts() *obs.Counts { return s.cnt }
//
// Both checks run in CI as `go run ./cmd/lrpvet`; it exits 1 on any
// finding.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

const marker = "maprange:ok"

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); name == ".git" || name == "testdata" || name == "vendor" {
			return filepath.SkipDir
		}
		sites, err := checkDir(path)
		if err != nil {
			return err
		}
		bad = append(bad, sites...)
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrpvet: %v\n", err)
		os.Exit(2)
	}
	for _, s := range bad {
		fmt.Println(s)
	}
	if len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "lrpvet: %d unannotated map range(s); map iteration order is randomized — use an ordered flat table, sort the keys, or annotate the line with `// %s — <why order cannot matter>`\n", len(bad), marker)
	}
	unreached, err := checkReach(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrpvet: %v\n", err)
		os.Exit(2)
	}
	for _, s := range unreached {
		fmt.Println(s)
	}
	if len(unreached) > 0 {
		fmt.Fprintf(os.Stderr, "lrpvet: %d function(s) linked by no binary — delete each, or say in its doc comment `// %s — <why it stays>`\n", len(unreached), keepMarker)
	}
	if len(bad) > 0 || len(unreached) > 0 {
		os.Exit(1)
	}
}

// checkDir checks the non-test Go files of one package directory, in
// file-name order, against the map-typed names declared across all of
// them.
func checkDir(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		names = append(names, path)
	}

	// Pass 1: every name the package declares with a map type.
	mapNames := map[string]bool{}
	for _, f := range files {
		collectMapNames(f, mapNames)
	}
	if len(mapNames) == 0 {
		return nil, nil
	}

	// Pass 2: every unannotated range over one of those names.
	var bad []string
	for i, f := range files {
		bad = append(bad, checkFile(fset, names[i], f, mapNames)...)
	}
	return bad, nil
}

// collectMapNames adds every name f declares with a map type.
func collectMapNames(f *ast.File, mapNames map[string]bool) {
	noteField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fd := range fl.List {
			if isMapType(fd.Type) {
				for _, n := range fd.Names {
					mapNames[n.Name] = true
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			noteField(n.Fields)
		case *ast.FuncType:
			noteField(n.Params)
			noteField(n.Results)
		case *ast.ValueSpec:
			if isMapType(n.Type) {
				for _, name := range n.Names {
					mapNames[name.Name] = true
				}
			}
			for i, v := range n.Values {
				if i < len(n.Names) && isMapExpr(v) {
					mapNames[n.Names[i].Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isMapExpr(rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						mapNames[id.Name] = true
					}
				}
			}
		}
		return true
	})
}

// checkFile reports every range in f over a name in mapNames that carries
// no annotation.
func checkFile(fset *token.FileSet, path string, f *ast.File, mapNames map[string]bool) []string {
	// Lines carrying an annotation (trailing or on their own).
	annotated := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, marker) {
				annotated[fset.Position(c.Pos()).Line] = true
			}
		}
	}

	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		name := operandName(rs.X)
		if name == "" || !mapNames[name] {
			return true
		}
		line := fset.Position(rs.Pos()).Line
		if annotated[line] || annotated[line-1] {
			return true
		}
		bad = append(bad, fmt.Sprintf("%s:%d: range over map %q without a %s annotation", path, line, name, marker))
		return true
	})
	return bad
}

// operandName returns the rightmost identifier of a range operand:
// `m` for `range m`, `field` for `range s.field`.
func operandName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.ParenExpr:
		return operandName(e.X)
	}
	return ""
}

func isMapType(e ast.Expr) bool {
	_, ok := e.(*ast.MapType)
	return ok
}

// isMapExpr reports whether an expression evidently builds a map:
// make(map[...]...) or a map composite literal.
func isMapExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
			return isMapType(e.Args[0])
		}
	case *ast.CompositeLit:
		return isMapType(e.Type)
	}
	return false
}
