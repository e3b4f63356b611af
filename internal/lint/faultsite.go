package lint

import (
	"go/ast"
	"go/types"
)

// faultsiteScope is where every fragile syscall must be injectable:
// the durable storage layer. The chaos harness can only prove crash
// invariants for failures it can provoke, so a raw syscall with no
// failpoint in reach is untested failure surface by construction.
var faultsiteScope = []string{"internal/storage"}

// riskyFileMethods are *os.File methods that mutate durable state.
var riskyFileMethods = map[string]bool{
	"Sync":        true,
	"Write":       true,
	"WriteString": true,
	"WriteAt":     true,
	"Truncate":    true,
}

// riskyOsFuncs are package-level os functions that mutate the
// filesystem.
var riskyOsFuncs = map[string]bool{
	"Rename":     true,
	"Create":     true,
	"CreateTemp": true,
	"OpenFile":   true,
	"Remove":     true,
	"RemoveAll":  true,
	"Mkdir":      true,
	"MkdirAll":   true,
	"WriteFile":  true,
	"Truncate":   true,
}

// FaultSite keeps the failpoint catalog exhaustive as storage grows:
// in internal/storage, every function that performs a mutating
// filesystem syscall (Sync/Write/Rename/Create/Truncate/Remove on
// *os.File or package os) must also evaluate a registered fault.Site
// — fault.Inject, fault.Eval, or an Outcome method — so tests can
// make that exact operation fail. A function with no reference to the
// fault package performing a raw syscall is a hole in the PR 7 chaos
// model.
var FaultSite = &Analyzer{
	Name: "faultsite",
	Run:  runFaultSite,
}

func runFaultSite(pass *Pass) error {
	if !pass.PathHasSuffix(faultsiteScope...) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if referencesFaultPkg(pass, fn) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, ok := riskySyscall(pass, call); ok {
					pass.Reportf(call.Pos(), "raw %s without a fault.Site guard in this function; add a failpoint (fault.Inject/Eval) or route through a guarded helper", name)
				}
				return true
			})
		}
	}
	return nil
}

// referencesFaultPkg reports whether fn's body touches the fault
// package at all: calls fault.Inject/Eval, fires an Outcome, or reads
// fault.ErrInjected. Any such reference means the function's fragile
// operations are reachable by an armed site.
func referencesFaultPkg(pass *Pass, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := pass.Info.Uses[id]; obj != nil {
			if pathIs(pkgPathOf(obj), "internal/fault") {
				found = true
			}
		}
		return !found
	})
	return found
}

// riskySyscall reports whether call is a mutating filesystem syscall,
// returning a printable name like "(*os.File).Sync" or "os.Rename".
func riskySyscall(pass *Pass, call *ast.CallExpr) (string, bool) {
	callee := calleeObj(pass.Info, call)
	if callee == nil {
		return "", false
	}
	if pkgPathOf(callee) != "os" {
		return "", false
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Name() != "File" {
			return "", false
		}
		if riskyFileMethods[callee.Name()] {
			return "(*os.File)." + callee.Name(), true
		}
		return "", false
	}
	if riskyOsFuncs[callee.Name()] {
		return "os." + callee.Name(), true
	}
	return "", false
}
