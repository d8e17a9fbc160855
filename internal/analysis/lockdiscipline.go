package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockDisciplineAnalyzer enforces three mutex rules on sync.Mutex /
// sync.RWMutex (including types that embed them):
//
//  1. no lock copied by value (parameters, plain assignments, range
//     values) — a copied mutex guards nothing;
//  2. every Lock/RLock has a matching Unlock/RUnlock somewhere in the
//     same function (plain or deferred) — cross-function lock helpers
//     are possible but rare enough to annotate with //lint:ignore;
//  3. no path re-Locks a mutex it already holds (straight-line and
//     branch-aware: a branch that unlocks-and-returns does not
//     release the fall-through path).
//
// Rule 3 reads the re-locks that lockorder's held-lock walk records
// (lockSummary), keyed by the rendered receiver, so the same field of
// two values of one type never collides. The walk is deliberately
// conservative: held-sets merge by intersection across branches, so it
// under-reports rather than false-positives.
var LockDisciplineAnalyzer = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "mutex copied by value, Lock without same-function Unlock, or double-lock on one path",
	Run:  runLockDiscipline,
}

func runLockDiscipline(pass *Pass) {
	for _, u := range pass.Prog.Units {
		for _, f := range u.Files {
			checkLockCopies(pass, u.Info, f)
		}
	}
	for _, n := range pass.Prog.Nodes {
		checkLockPairing(pass, n)
		for _, r := range pass.Prog.lockSummary(n).relocks {
			pass.Reportf(r.pos, "Lock of %s while already held on this path (locked at line %d); this deadlocks",
				r.recv, pass.Prog.Fset.Position(r.held).Line)
		}
	}
}

// --- mutex operations -------------------------------------------------

// mutexCall classifies call as a Lock, Unlock, RLock or RUnlock of a
// sync.Mutex or sync.RWMutex (including promotions through embedding).
// It returns the receiver expression, whether the call is write-mode
// (Lock/Unlock rather than RLock/RUnlock), and whether it acquires.
// TryLock and the rest are not classified: their failure is
// observable, so there is no discipline to enforce.
func mutexCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, write, acquire, ok bool) {
	fn, sel := methodOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, false, false, false
	}
	if owner, _ := namedOwner(fn.Type().(*types.Signature).Recv().Type()); owner != "Mutex" && owner != "RWMutex" {
		return nil, false, false, false
	}
	switch fn.Name() {
	case "Lock":
		write, acquire = true, true
	case "Unlock":
		write = true
	case "RLock":
		acquire = true
	case "RUnlock":
	default:
		return nil, false, false, false
	}
	return sel.X, write, acquire, true
}

// --- rule 1: copies ---------------------------------------------------

func checkLockCopies(pass *Pass, info *types.Info, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			checkFieldListCopies(pass, info, d.Recv)
			checkFieldListCopies(pass, info, d.Type.Params)
			checkFieldListCopies(pass, info, d.Type.Results)
		case *ast.FuncLit:
			checkFieldListCopies(pass, info, d.Type.Params)
			checkFieldListCopies(pass, info, d.Type.Results)
		case *ast.AssignStmt:
			for i, rhs := range d.Rhs {
				if !copiesLockValue(info, rhs) {
					continue
				}
				lhs := "_"
				if i < len(d.Lhs) {
					lhs = types.ExprString(d.Lhs[i])
				}
				pass.Reportf(d.Pos(), "assignment of %s to %s copies a sync lock by value; use a pointer", types.ExprString(rhs), lhs)
			}
		case *ast.RangeStmt:
			if d.Value != nil {
				if elem := rangeElemType(info.TypeOf(d.X)); elem != nil && containsLock(elem) {
					pass.Reportf(d.Value.Pos(), "range value %s copies a sync lock each iteration; range over indices or pointers", types.ExprString(d.Value))
				}
			}
		}
		return true
	})
}

func checkFieldListCopies(pass *Pass, info *types.Info, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		t := info.TypeOf(f.Type)
		if t == nil {
			continue
		}
		if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if containsLock(t) {
			pass.Reportf(f.Type.Pos(), "%s passes a sync lock by value; use a pointer", types.ExprString(f.Type))
		}
	}
}

// copiesLockValue reports whether evaluating e yields a by-value copy
// of an existing lock-containing value. Composite literals and calls
// construct fresh values and are fine.
func copiesLockValue(info *types.Info, e ast.Expr) bool {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
	default:
		return false
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	return containsLock(t)
}

func rangeElemType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	}
	return nil
}

// containsLock reports whether t directly contains a sync.Mutex or
// sync.RWMutex (through struct fields and arrays, not pointers).
func containsLock(t types.Type) bool {
	return containsLock1(t, make(map[types.Type]bool))
}

func containsLock1(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock1(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsLock1(u.Elem(), seen)
	}
	return false
}

// --- rule 2: pairing --------------------------------------------------

func checkLockPairing(pass *Pass, n *FuncNode) {
	type counts struct {
		firstLock token.Pos
		locks     int
		unlocks   int
	}
	perKey := map[string]*counts{} // rendered receiver + "/" + mode
	var order []string
	n.inspect(func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, write, acquire, ok := mutexCall(n.Unit.Info, call)
		if !ok {
			return true
		}
		mode := "r"
		if write {
			mode = "w"
		}
		k := types.ExprString(recv) + "/" + mode
		c := perKey[k]
		if c == nil {
			c = &counts{}
			perKey[k] = c
			order = append(order, k)
		}
		if acquire {
			c.locks++
			if c.firstLock == token.NoPos {
				c.firstLock = call.Pos()
			}
		} else {
			c.unlocks++
		}
		return true
	})
	for _, k := range order {
		c := perKey[k]
		if c.locks > 0 && c.unlocks == 0 {
			name, uname := "Lock", "Unlock"
			if k[len(k)-1] == 'r' {
				name, uname = "RLock", "RUnlock"
			}
			pass.Reportf(c.firstLock, "%s of %s without a matching %s in the same function; defer the unlock (or //lint:ignore lockdiscipline <reason> for cross-function helpers)",
				name, k[:len(k)-2], uname)
		}
	}
}
