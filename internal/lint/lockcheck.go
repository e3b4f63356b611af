package lint

import (
	"go/ast"
	"go/types"
)

// LockCheck enforces annotation-driven lock discipline. A struct field
// marked
//
//	//kdb:guarded-by mu
//
// may only be read while mu (a sibling sync.Mutex or sync.RWMutex
// field) is held, and only be written while it is write-held. The
// check is flow-insensitive and per-function: a function "holds" the
// lock if its body acquires it (x.mu.Lock() / x.mu.RLock() on the
// same base path as the access) or if its doc comment declares that
// the caller does (//kdb:locked mu, //kdb:rlocked mu). Accesses
// through a local the function itself built from a composite literal
// are exempt — an unpublished object needs no lock.
//
// This is precisely the discipline whose violation caused the PR 6
// bug where Checkpoint truncated the WAL under a read lock: a write
// access to guarded state in a function that only ever acquired
// RLock.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Run:  runLockCheck,
}

// lockMode distinguishes read-held from write-held locks.
type lockMode int

const (
	lockNone lockMode = iota
	lockRead
	lockWrite
)

// guardedField describes one annotated field.
type guardedField struct {
	mutex string // sibling mutex field name
}

func runLockCheck(pass *Pass) error {
	guarded := map[*types.Var]guardedField{}

	// Pass 1: collect annotated fields, validating the annotation.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := map[string]types.Type{}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						fieldNames[name.Name] = v.Type()
					}
				}
			}
			for _, fld := range st.Fields.List {
				mu, ok := groupDirective("guarded-by", fld.Doc, fld.Comment)
				if !ok {
					continue
				}
				if mu == "" {
					pass.Reportf(fld.Pos(), "kdb:guarded-by needs a mutex field name")
					continue
				}
				mt, ok := fieldNames[mu]
				if !ok || !isMutexType(mt) {
					pass.Reportf(fld.Pos(), "kdb:guarded-by %s: no sibling sync.Mutex or sync.RWMutex field %q", mu, mu)
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						guarded[v] = guardedField{mutex: mu}
					}
				}
			}
			return true
		})
	}
	if len(guarded) == 0 {
		return nil
	}

	// Pass 2: check every function body.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockBody(pass, fn, guarded)
		}
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if pkgPathOf(obj) != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func checkLockBody(pass *Pass, fn *ast.FuncDecl, guarded map[*types.Var]guardedField) {
	// held maps "basePath.mutexName" to the strongest mode acquired
	// anywhere in the function (flow-insensitive).
	held := map[string]lockMode{}
	hold := func(key string, m lockMode) {
		if held[key] < m {
			held[key] = m
		}
	}

	recvName := ""
	if fn.Recv != nil && len(fn.Recv.List) == 1 && len(fn.Recv.List[0].Names) == 1 {
		recvName = fn.Recv.List[0].Names[0].Name
	}
	applyDirective := func(name string, mode lockMode) {
		if arg, ok := groupDirective(name, fn.Doc); ok && arg != "" {
			for _, mu := range splitFields(arg) {
				key := mu
				if recvName != "" && !containsDot(mu) {
					key = recvName + "." + mu
				}
				hold(key, mode)
			}
		}
	}
	applyDirective("locked", lockWrite)
	applyDirective("rlocked", lockRead)

	// Locals built from composite literals in this function are
	// unpublished: accesses through them need no lock.
	fresh := map[string]bool{}

	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && isCompositeLitExpr(rhs) {
					fresh[id.Name] = true
				}
			}
		case *ast.CallExpr:
			// x.mu.Lock() / x.mu.RLock()
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var mode lockMode
			switch sel.Sel.Name {
			case "Lock":
				mode = lockWrite
			case "RLock":
				mode = lockRead
			default:
				return true
			}
			if path := exprPath(sel.X); path != "" {
				hold(path, mode)
			}
		}
		return true
	})

	// Now visit guarded-field accesses with parent context.
	var visit func(n ast.Node, writeTargets map[ast.Expr]bool)
	reported := map[*ast.SelectorExpr]bool{}
	check := func(sel *ast.SelectorExpr, write bool) {
		s := pass.Info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		v, ok := s.Obj().(*types.Var)
		if !ok {
			return
		}
		g, ok := guarded[v]
		if !ok || reported[sel] {
			return
		}
		if root := rootIdent(sel.X); root != nil && fresh[root.Name] {
			return
		}
		base := exprPath(sel.X)
		if base == "" {
			return // not an ident chain; outside what this check models
		}
		key := base + "." + g.mutex
		need := lockRead
		verb := "reading"
		if write {
			need = lockWrite
			verb = "writing"
		}
		if held[key] >= need {
			return
		}
		reported[sel] = true
		if write && held[key] == lockRead {
			pass.Reportf(sel.Pos(), "%s %s.%s (guarded by %s) while holding only the read lock", verb, base, v.Name(), key)
			return
		}
		pass.Reportf(sel.Pos(), "%s %s.%s (guarded by %s) without holding %s", verb, base, v.Name(), key, key)
	}

	visit = func(n ast.Node, _ map[ast.Expr]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						check(sel, true)
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					check(sel, true)
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						check(sel, true)
					}
				}
			case *ast.SelectorExpr:
				check(n, false)
			}
			return true
		})
	}
	visit(fn.Body, nil)
}

// isCompositeLitExpr reports whether e is T{...}, &T{...}, or a
// new(T)-style allocation: a value this function just built.
func isCompositeLitExpr(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "new" {
			return true
		}
	}
	return false
}

func splitFields(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ' ' || r == '\t' || r == ',' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func containsDot(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return true
		}
	}
	return false
}
