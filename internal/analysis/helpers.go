package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// pkgFunc resolves a call of the form pkg.Fn where pkg is an imported
// package name, returning the package path and function name, or
// ok=false for anything else (method calls, local helpers, conversions).
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okID := sel.X.(*ast.Ident)
	if !okID {
		return "", "", false
	}
	pn, okPkg := info.Uses[id].(*types.PkgName)
	if !okPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodOf resolves a method call x.M(...) to the *types.Func it
// invokes (following embedded promotions), or nil.
func methodOf(info *types.Info, call *ast.CallExpr) (*types.Func, *ast.SelectorExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return nil, nil
	}
	return fn, sel
}

// isErrorType reports whether t is exactly the predeclared error
// interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isFloat reports whether t's underlying type is a floating-point
// kind (the accumulation order of which is observable). t is nil for
// the blank identifier (`_ = f()` has no LHS type).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// underMap returns the map type underlying t, traversing named types,
// or nil.
func underMap(t types.Type) *types.Map {
	if t == nil {
		return nil
	}
	m, _ := t.Underlying().(*types.Map)
	return m
}

// exprMentions reports whether any identifier or selector inside e
// renders (via types.ExprString) to target.
func exprMentions(e ast.Expr, target string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if types.ExprString(n.(ast.Expr)) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// rootIdent strips selectors, indexing, slicing, derefs, and parens
// down to the root identifier of an assignable expression
// (s.a[i].b → s), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// inPkg reports whether the package or unit path (external test units
// carry a ".test" suffix) is one of suffixes or ends in /suffix.
func inPkg(path string, suffixes ...string) bool {
	path = strings.TrimSuffix(path, ".test")
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// isSimWallClock reports whether t is sim.WallClock (or a pointer to
// it) from this module's simulation substrate.
func isSimWallClock(t types.Type) bool {
	name, pkg := namedOwner(t)
	return name == "WallClock" && inPkg(pkg, simPkgSuffix)
}
