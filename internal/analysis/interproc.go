package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds what the interprocedural checks (lockorder, detflow,
// leakcheck) share: a worklist solver that runs a check's per-function
// transfer to a fixed point across the whole module, and the identity
// of shared state (mutexes, channels, WaitGroups) across functions.
// Each check keeps its own facts in maps keyed by *FuncNode.

// FixedPoint runs transfer over every node until facts stabilize.
// transfer returns the nodes whose facts it changed (itself included,
// if its own summary changed); the driver re-enqueues each changed
// node and its callers. Node order is deterministic, so fact
// convergence — and therefore diagnostic order — is too. The pass
// budget is generous but finite, as a defense against a non-monotone
// transfer looping forever.
func (p *Program) FixedPoint(transfer func(*FuncNode) []*FuncNode) {
	inQueue := make(map[*FuncNode]bool, len(p.Nodes))
	queue := make([]*FuncNode, 0, len(p.Nodes))
	push := func(n *FuncNode) {
		if !inQueue[n] {
			inQueue[n] = true
			queue = append(queue, n)
		}
	}
	for _, n := range p.Nodes {
		push(n)
	}
	budget := len(p.Nodes)*64 + 1024
	for i := 0; i < len(queue) && budget > 0; i++ {
		budget--
		n := queue[i]
		inQueue[n] = false
		for _, changed := range transfer(n) {
			push(changed)
			for _, caller := range p.Callers(changed) {
				push(caller)
			}
		}
	}
}

// --- shared state identity --------------------------------------------

// stateKey identifies a mutex, channel, or WaitGroup across functions
// and instances: struct fields key by owning type + field name (all
// instances of serve.Server share one "Server.mu"), package-level vars
// by package + name, locals by declaration position. Display is the
// human form used in diagnostics.
type stateKey struct {
	Key     string
	Display string
}

// stateKeyOf resolves the identity of the lvalue-ish expression e (the
// receiver of mu.Lock(), the operand of close(ch), the receiver of
// wg.Wait()). ok is false for expressions with no stable identity
// (map elements, call results).
func stateKeyOf(info *types.Info, fset *token.FileSet, e ast.Expr) (stateKey, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if owner, ownerPkg := namedOwner(sel.Recv()); owner != "" {
				return stateKey{
					Key:     ownerPkg + "." + owner + "." + x.Sel.Name,
					Display: shortPkg(ownerPkg) + "." + owner + "." + x.Sel.Name,
				}, true
			}
			// Field of an unnamed struct: fall back to the field object.
			if obj := info.Uses[x.Sel]; obj != nil {
				return posKey(fset, obj), true
			}
			return stateKey{}, false
		}
		return pkgVarKey(info.Uses[x.Sel]) // qualified package-level var: pkg.Mu
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil {
			return stateKey{}, false
		}
		if k, ok := pkgVarKey(obj); ok {
			return k, true
		}
		return posKey(fset, obj), true
	case *ast.StarExpr:
		return stateKeyOf(info, fset, x.X)
	case *ast.IndexExpr:
		// Collection element: identify by the collection itself, so
		// "buckets[k].Lock / close(workers[i])" at least merge per
		// collection.
		return stateKeyOf(info, fset, x.X)
	}
	return stateKey{}, false
}

// pkgVarKey keys a package-level variable by package path and name;
// ok is false for any other object.
func pkgVarKey(obj types.Object) (stateKey, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return stateKey{}, false
	}
	return stateKey{Key: v.Pkg().Path() + "." + v.Name(), Display: v.Pkg().Name() + "." + v.Name()}, true
}

// namedOwner returns the named type (and its package path) a selection
// receiver resolves to, dereferencing one pointer.
func namedOwner(t types.Type) (name, pkgPath string) {
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name(), ""
	}
	return obj.Name(), obj.Pkg().Path()
}

func posKey(fset *token.FileSet, obj types.Object) stateKey {
	pos := fset.Position(obj.Pos())
	return stateKey{
		Key:     fmt.Sprintf("%s@%s:%d:%d", obj.Name(), pos.Filename, pos.Line, pos.Column),
		Display: obj.Name(),
	}
}

func shortPkg(path string) string {
	return shortFile(path) // last path segment reads as the package name
}
