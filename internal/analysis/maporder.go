package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrderAnalyzer flags `for range` over a map whose body leaks the
// (randomized) iteration order into observable state — the exact bug
// class PR 2 fixed five times by hand. A loop body leaks order when it
//
//   - appends to a slice that is not passed to a sort call later in
//     the same function (the collect-keys-then-sort idiom is the
//     canonical fix and stays silent),
//   - accumulates into a floating-point variable declared outside the
//     loop (float addition is not associative, so even "commutative"
//     sums differ run to run), or
//   - emits output directly (fmt print family or Write* methods).
//
// Integer/bool accumulation, map writes, and deletes are order-
// insensitive and never flagged.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc:  "map iteration with an order-sensitive body (append/float-accumulate/output) without sorting",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	for _, n := range pass.Prog.Nodes {
		info := n.Unit.Info
		n.inspect(func(x ast.Node) bool {
			if rs, ok := x.(*ast.RangeStmt); ok && underMap(info.TypeOf(rs.X)) != nil {
				checkMapRange(pass, info, n.Body, rs)
			}
			return true
		})
	}
}

func checkMapRange(pass *Pass, info *types.Info, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	var appendTargets []string
	var floatAccum, output []string

	inspectOwn(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if t, ok := appendTarget(info, s, rs); ok {
				appendTargets = append(appendTargets, t)
				return true
			}
			if t, ok := floatAccumTarget(info, s, rs); ok {
				floatAccum = append(floatAccum, t)
			}
		case *ast.CallExpr:
			if t, ok := outputCall(info, s); ok {
				output = append(output, t)
			}
		}
		return true
	})

	var leaks []string
	for _, t := range appendTargets {
		if !sortedAfter(info, funcBody, t, rs.End()) {
			leaks = append(leaks, "append to "+t)
		}
	}
	for _, t := range floatAccum {
		leaks = append(leaks, "float accumulation into "+t)
	}
	for _, t := range output {
		leaks = append(leaks, "output via "+t)
	}
	if len(leaks) == 0 {
		return
	}
	leaks = dedupe(leaks)
	pass.Reportf(rs.For, "map iteration order leaks into %s; sort the keys first (or //lint:ignore maporder <reason>)",
		strings.Join(leaks, ", "))
}

// appendTarget matches `x = append(x, ...)` (any LHS arity one) and
// returns the rendered target. Targets rooted at a variable declared
// inside the range statement (the key/value vars or a body-local) are
// per-iteration state and cannot leak iteration order across
// iterations, so they are skipped.
func appendTarget(info *types.Info, s *ast.AssignStmt, rs *ast.RangeStmt) (string, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return "", false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return "", false
	}
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
		return "", false
	}
	if declaredWithin(info, rootIdent(s.Lhs[0]), rs) {
		return "", false
	}
	return types.ExprString(s.Lhs[0]), true
}

// floatAccumTarget matches compound float accumulation (`+=`, `-=`,
// `*=`, `/=`, or `x = x + e`) into a variable or field that outlives
// one loop iteration.
func floatAccumTarget(info *types.Info, s *ast.AssignStmt, rs *ast.RangeStmt) (string, bool) {
	if len(s.Lhs) != 1 {
		return "", false
	}
	lhs := s.Lhs[0]
	if !isFloat(info.TypeOf(lhs)) {
		return "", false
	}
	target := types.ExprString(lhs)
	accum := false
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		accum = true
	case token.ASSIGN:
		if bin, ok := s.Rhs[0].(*ast.BinaryExpr); ok {
			accum = types.ExprString(bin.X) == target || types.ExprString(bin.Y) == target
		}
	}
	if !accum {
		return "", false
	}
	// A target rooted at a variable declared inside the range statement
	// is reborn every iteration and cannot accumulate across the map's
	// order.
	if declaredWithin(info, rootIdent(lhs), rs) {
		return "", false
	}
	// m[k] += v keyed by the range's own key variable touches a
	// distinct element each iteration: per-key accumulation, order
	// cannot leak.
	if ix, ok := lhs.(*ast.IndexExpr); ok && mentionsRangeKey(info, ix.Index, rs) {
		return "", false
	}
	return target, true
}

// declaredWithin reports whether id resolves to an object declared
// inside the range statement (its key/value variables or any
// body-local).
func declaredWithin(info *types.Info, id *ast.Ident, rs *ast.RangeStmt) bool {
	if id == nil {
		return false
	}
	obj := info.ObjectOf(id)
	return obj != nil && obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End()
}

// mentionsRangeKey reports whether e uses the object bound to the
// range statement's key variable.
func mentionsRangeKey(info *types.Info, e ast.Expr, rs *ast.RangeStmt) bool {
	keyID, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := info.ObjectOf(keyID)
	if keyObj == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == keyObj {
			found = true
		}
		return !found
	})
	return found
}

// outputCall matches direct emission: the fmt print family and
// Write/WriteString/WriteByte/WriteRune method calls.
func outputCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if path, name, ok := pkgFunc(info, call); ok {
		if path == "fmt" {
			switch name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return "fmt." + name, true
			}
		}
		return "", false
	}
	if fn, sel := methodOf(info, call); fn != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return types.ExprString(sel), true
		}
	}
	return "", false
}

// sortedAfter reports whether target is mentioned in an argument of a
// recognized sort call at or after from anywhere in the function body,
// nested literals included: a closure that sorts the slice (say under
// once.Do) canonicalizes it as well as a direct call. maporder searches
// from the end of the range statement; detflow from the accruing
// assignment, before the taint can reach derived values — clearing it
// afterwards would leave the derivatives tainted.
func sortedAfter(info *types.Info, body *ast.BlockStmt, target string, from token.Pos) bool {
	target = strings.TrimPrefix(target, "*")
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < from || !isSortCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if exprMentions(arg, target) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isSortCall is the one list of calls that maporder and detflow both
// credit with erasing map iteration order from their arguments.
func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	if path, name, ok := pkgFunc(info, call); ok {
		switch path {
		case "sort":
			switch name {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
				return true
			}
		case "slices":
			switch name {
			case "Sort", "SortFunc", "SortStableFunc":
				return true
			}
		}
		return false
	}
	// A method literally named Sort on anything (e.g. a keyed result
	// set with its own canonical order) also counts.
	fn, _ := methodOf(info, call)
	return fn != nil && fn.Name() == "Sort"
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
