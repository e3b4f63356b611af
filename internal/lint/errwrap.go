package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// errwrapScope is where the structured-error taxonomy must survive:
// errors returned across these package boundaries are matched with
// errors.Is/As against ErrClosed, ErrDurability, LimitError, and the
// governor's stop errors, so dropping a cause to %v or %s there
// silently severs the chain.
var errwrapScope = []string{"internal/kb", "internal/storage", "internal/server"}

// ErrWrap reports fmt.Errorf calls in boundary packages that format an
// error value without a matching %w verb. Stringifying a cause (%v,
// %s, or err.Error()) breaks errors.Is/As for every caller above —
// the durability taxonomy and the server's error mapping both depend
// on the chain staying intact.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) error {
	if !pass.PathHasSuffix(errwrapScope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeObj(pass.Info, call)
			if fn == nil || fn.Name() != "Errorf" || pkgPathOf(fn) != "fmt" {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
			if !ok {
				return true // non-literal format: out of scope
			}
			format, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			wraps := countWrapVerbs(format)
			errArgs := 0
			stringified := false
			for _, arg := range call.Args[1:] {
				t := pass.Info.Types[arg].Type
				if implementsError(t) {
					errArgs++
					continue
				}
				// err.Error() as an argument: an error stringified by hand.
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					if sel, ok := inner.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" && len(inner.Args) == 0 {
						if implementsError(pass.Info.Types[sel.X].Type) {
							errArgs++
							stringified = true
						}
					}
				}
			}
			if errArgs > wraps {
				if stringified {
					pass.Reportf(call.Pos(), "fmt.Errorf stringifies an error with .Error(); pass the error itself and wrap it with %%w")
				} else {
					pass.Reportf(call.Pos(), "fmt.Errorf formats an error value without %%w; the cause is lost to errors.Is/As (%d error arg(s), %d %%w verb(s))", errArgs, wraps)
				}
			}
			return true
		})
	}
	return nil
}

// countWrapVerbs counts %w verbs in a fmt format string, skipping %%.
func countWrapVerbs(format string) int {
	n := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			break
		}
		if format[i] == '%' {
			continue
		}
		// Skip flags, width, precision, and argument indexes to find
		// the verb character.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.[]*", rune(format[i])) {
			i++
		}
		if i < len(format) && format[i] == 'w' {
			n++
		}
	}
	return n
}
