package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrCompareAnalyzer forbids identity comparison of errors — the PR 3
// bug class: when fault injection started wrapping engine sentinels
// (%w), every `err == ErrLogFull` in dta silently stopped matching and
// misclassified aborts. Flagged forms:
//
//   - `err == ErrSentinel` / `err != ErrSentinel` where one side is a
//     declared error variable (package-level sentinel); `== nil` stays
//     allowed,
//   - `switch err { case ErrSentinel: }` on an error-typed tag,
//   - `err.Error() == "..."` and strings.Contains/HasPrefix/HasSuffix/
//     EqualFold over err.Error() — string matching is even more
//     fragile than identity.
//
// The fix is errors.Is (or errors.As for typed errors).
var ErrCompareAnalyzer = &Analyzer{
	Name: "errcompare",
	Doc:  "error compared with ==/!= or matched by string instead of errors.Is/errors.As",
	Run:  runErrCompare,
}

func runErrCompare(pass *Pass) {
	for _, u := range pass.Prog.Units {
		for _, file := range u.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.BinaryExpr:
					checkErrBinary(pass, u.Info, e)
				case *ast.SwitchStmt:
					checkErrSwitch(pass, u.Info, e)
				case *ast.CallExpr:
					checkErrStringMatch(pass, u.Info, e)
				}
				return true
			})
		}
	}
}

func checkErrBinary(pass *Pass, info *types.Info, e *ast.BinaryExpr) {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{e.X, e.Y} {
		if c := errorStringCall(info, side); c != "" {
			pass.Reportf(e.Pos(), "%s compares error text; use errors.Is (wrapped errors change their string)", c)
			return
		}
	}
	if !isErrorType(info.TypeOf(e.X)) && !isErrorType(info.TypeOf(e.Y)) {
		return
	}
	for _, side := range []ast.Expr{e.X, e.Y} {
		if s := sentinelName(info, side); s != "" {
			pass.Reportf(e.Pos(), "error compared with %s against sentinel %s; use errors.Is so wrapped errors still match", e.Op, s)
			return
		}
	}
}

func checkErrSwitch(pass *Pass, info *types.Info, s *ast.SwitchStmt) {
	if s.Tag == nil || !isErrorType(info.TypeOf(s.Tag)) {
		return
	}
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, expr := range cc.List {
			if name := sentinelName(info, expr); name != "" {
				pass.Reportf(expr.Pos(), "switch on error compares sentinel %s by identity; use if/else with errors.Is", name)
			}
		}
	}
}

// checkErrStringMatch flags strings.* substring matching over
// err.Error().
func checkErrStringMatch(pass *Pass, info *types.Info, call *ast.CallExpr) {
	path, name, ok := pkgFunc(info, call)
	if !ok || path != "strings" {
		return
	}
	switch name {
	case "Contains", "HasPrefix", "HasSuffix", "EqualFold", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		if inner, ok := arg.(*ast.CallExpr); ok {
			if c := errorStringCall(info, inner); c != "" {
				pass.Reportf(call.Pos(), "strings.%s over %s matches error text; use errors.Is or a typed error", name, c)
				return
			}
		}
	}
}

// errorStringCall matches a call `x.Error()` where x is an error, and
// returns its rendering, or "".
func errorStringCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return ""
	}
	if !isErrorType(info.TypeOf(sel.X)) {
		return ""
	}
	return types.ExprString(call)
}

// sentinelName reports e as a use of a declared error variable (a
// sentinel like engine.ErrLockTimeout), returning its rendering.
// nil and fresh local errors are not sentinels.
func sentinelName(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	var obj types.Object
	switch x := e.(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	default:
		return ""
	}
	v, ok := obj.(*types.Var)
	if !ok || !isErrorType(v.Type()) {
		return ""
	}
	// Package-level error vars are sentinels; locals (err) and struct
	// fields are not.
	if v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return types.ExprString(e)
}
