package storage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFileCallsGoThroughSeam: storage touches the file system only
// through the disk seam (fault.Disk), so a simulated disk sees — and can
// fail or crash — every file operation it makes. Non-test storage code
// calls no function of package os or syscall and names no *os.File or
// standard stream; their constants and error values are fine.
func TestFileCallsGoThroughSeam(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		banned := map[string]string{} // local name → import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path != "os" && path != "syscall" {
				continue
			}
			local := path
			if imp.Name != nil {
				local = imp.Name.Name
			}
			banned[local] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if pkg, fn, ok := bannedSelector(call.Fun, banned); ok {
					t.Errorf("%s: %s.%s call outside the disk seam", fset.Position(call.Pos()), pkg, fn)
				}
			}
			if pkg, name, ok := bannedSelector(n, banned); ok && pkg == "os" {
				switch name {
				case "File", "Stdin", "Stdout", "Stderr":
					t.Errorf("%s: os.%s outside the disk seam", fset.Position(n.Pos()), name)
				}
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no storage source files found")
	}
}

// bannedSelector reports whether n is pkg.Name for a banned package.
func bannedSelector(n ast.Node, banned map[string]string) (pkg, name string, ok bool) {
	sel, isSel := n.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent || banned[id.Name] == "" {
		return "", "", false
	}
	return banned[id.Name], sel.Sel.Name, true
}
