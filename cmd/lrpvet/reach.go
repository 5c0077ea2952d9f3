package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
)

const keepMarker = "api:keep"

// checkReach reports every non-test function declared in the module at
// root, or in a module nested under it, that no binary links and whose
// doc comment carries no api:keep annotation. Each module's main
// packages are built with inlining off, so a function is linked exactly
// when some binary can call it, and `go tool nm` lists what each links.
func checkReach(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp("", "lrpvet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var mods []string
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if n := d.Name(); d.IsDir() && p != root && (n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		} else if n == "go.mod" {
			mods = append(mods, filepath.Dir(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	linked := map[string]bool{}
	var decls [][2]string // declaration key, site
	for i, mod := range mods {
		bin := filepath.Join(tmp, fmt.Sprint(i)) + string(filepath.Separator)
		if _, err := run(mod, "build", "-gcflags=all=-l", "-o", bin, "./..."); err != nil {
			return nil, err
		}
		list, err := run(mod, "list", "-json=ImportPath,Name,Dir,GoFiles", "./...")
		if err != nil {
			return nil, err
		}
		for dec := json.NewDecoder(strings.NewReader(list)); dec.More(); {
			var p struct {
				ImportPath, Name, Dir string
				GoFiles               []string
			}
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Name == "main" {
				syms, err := run(mod, "tool", "nm", bin+path.Base(p.ImportPath))
				if err != nil {
					return nil, err
				}
				for _, line := range strings.Split(syms, "\n") {
					// A generic shape's name holds spaces: the name is
					// every field after the address and the symbol type.
					if f := strings.Fields(line); len(f) >= 3 && strings.EqualFold(f[1], "T") {
						name := strings.Join(f[2:], " ")
						if rest, ok := strings.CutPrefix(name, "main."); ok {
							name = p.ImportPath + "." + rest
						}
						linked[symKey(name)] = true
					}
				}
			}
			fset := token.NewFileSet()
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				for _, d := range f.Decls {
					fd, ok := d.(*ast.FuncDecl)
					if !ok || fd.Body == nil || fd.Recv == nil && fd.Name.Name == "init" ||
						fd.Doc != nil && strings.Contains(fd.Doc.Text(), keepMarker) {
						continue
					}
					name := fd.Name.Name
					if fd.Recv != nil { // "*Table[V]" keys as the linker's "(*Table[...])"
						name = symKey(types.ExprString(fd.Recv.List[0].Type)) + "." + name
					}
					pos := fset.Position(fd.Pos())
					rel, _ := filepath.Rel(root, pos.Filename)
					decls = append(decls, [2]string{p.ImportPath + "." + name, fmt.Sprintf("%s:%d: %s", rel, pos.Line, name)})
				}
			}
		}
	}
	var bad []string
	for _, d := range decls {
		if !linked[d[0]] {
			bad = append(bad, d[1]+" is linked by no binary")
		}
	}
	return bad, nil
}

// run runs a go subcommand in dir and returns its stdout.
func run(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s in %s: %v", strings.Join(args, " "), dir, err)
	}
	return string(out), nil
}

// symKey maps a linked symbol to the key of the declaration it belongs
// to: nested type arguments, receiver pointers and closure suffixes go,
// so `p.(*T[go.shape.struct { K int }]).M.func1` becomes `p.T.M`.
func symKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndexByte(s, '/')
	if i := strings.IndexByte(s[slash+1:], '-'); i >= 0 { // M-fm, F-range1
		s = s[:slash+1+i]
	}
	for {
		i := strings.LastIndexByte(s, '.')
		elem := s[i+1:]
		for _, p := range []string{"func", "gowrap", "deferwrap"} {
			elem = strings.TrimPrefix(elem, p)
		}
		// func1, gowrap2, deferwrap1 and a bare 3 name compiler-made
		// functions inside their parent.
		if i <= slash || elem == "" || strings.Trim(elem, "0123456789") != "" {
			return s
		}
		s = s[:i]
	}
}
