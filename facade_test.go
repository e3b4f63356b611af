package kdb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"kdb"
)

// errorContract is the errors.Is / errors.As surface README and DESIGN
// document: callers match on these names even when no code in the module
// spells them out.
var errorContract = []string{
	"ErrCanceled", "ErrClosed", "ErrDurability", "ErrServerOverloaded",
	"LimitError", "LimitKind", "LimitFacts", "LimitIterations",
	"LimitDescribeNodes", "LimitProvenance",
	"PanicError", "StopError", "AnalysisError",
}

// TestFacadeNamesHaveCallers holds kdb.go to what its callers use. An
// exported name stays only if
//   - examples/, cmd/, bench/ or a root-level test names it as kdb.X;
//   - a kept function's signature uses it; or
//   - it belongs to errorContract.
//
// Explanation is kept as the type of ExecResult.Explanation, the field
// README points library callers at for an explain statement's trees.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "kdb.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var funcs []*ast.FuncDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				declared[d.Name.Name] = true
				funcs = append(funcs, d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = s.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n.Name] = n.IsExported()
					}
				}
			}
		}
	}

	kept := map[string]bool{}
	for _, n := range errorContract {
		kept[n] = true
	}
	field, ok := reflect.TypeOf(kdb.ExecResult{}).FieldByName("Explanation")
	if ok && field.Type == reflect.TypeOf((*kdb.Explanation)(nil)) {
		kept["Explanation"] = true
	}
	named := regexp.MustCompile(`\bkdb\.([A-Z]\w*)`)
	scan := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range named.FindAllSubmatch(src, -1) {
			kept[string(m[1])] = true
		}
	}
	for _, dir := range []string{"examples", "cmd", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				scan(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	tests, _ := filepath.Glob("*_test.go")
	for _, path := range tests {
		if path != "facade_test.go" {
			scan(path)
		}
	}
	for _, fn := range funcs {
		if !kept[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Type, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false // a type from another package
			case *ast.Ident:
				if declared[n.Name] {
					kept[n.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for name, exported := range declared {
		if exported && !kept[name] {
			unused = append(unused, name)
		}
	}
	slices.Sort(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported names in kdb.go have no caller: %s", len(unused), strings.Join(unused, ", "))
	}
}
