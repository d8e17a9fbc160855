package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module Program every analyzer runs over:
// its units, one node per function, and the call graph that the
// interprocedural analyzers (lockorder, detflow, leakcheck) follow.
// The graph is
// deliberately conservative where Go is dynamic:
//
//   - static calls (pkg.F(), x.Method() on a concrete receiver, direct
//     function-literal invocation) resolve to exactly one node;
//   - interface method calls resolve to every module method with the
//     same name and an identical (receiver-stripped) signature — a
//     name-and-signature over-approximation of the implements relation
//     that stays correct across separately type-checked units;
//   - calls through function-typed values (variables, parameters,
//     struct fields, method values) resolve to every address-taken
//     function or literal whose signature matches the call.
//
// Over-approximating callees makes the fact propagation in
// interproc.go conservative in the safe direction for "may acquire" /
// "may taint" style facts. Calls into other modules (stdlib included)
// resolve to no node; analyzers treat those as opaque.

// A FuncNode is one function in the whole-module call graph: a declared
// function or method, or a function literal.
type FuncNode struct {
	// Key is the node's canonical cross-unit identity:
	// (*types.Func).FullName for declared functions — stable between a
	// package's own (test-augmented) type-check and the canonical form
	// other packages import — and the literal's position for FuncLits.
	Key string
	// Name is the display name used in diagnostics ("serve.(*Server).Shutdown",
	// "func literal at serve.go:226").
	Name string
	// Obj is the declared function's object; nil for literals.
	Obj *types.Func
	// Decl / Lit: exactly one is non-nil.
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Unit *Unit
	// Test marks nodes declared in _test.go files (or external test
	// packages). lockorder and leakcheck take no facts from them.
	Test bool
	// Calls lists the node's call sites in source order.
	Calls []*CallSite

	addressTaken bool
	sig          *types.Signature
}

// Pos returns the node's declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// A CallSite is one call expression inside a FuncNode, with its
// resolved module-internal targets.
type CallSite struct {
	Call *ast.CallExpr
	// Go marks `go f()` launch sites.
	Go bool
	// Dynamic marks calls resolved by signature matching (interface
	// dispatch or function values) rather than direct reference.
	Dynamic bool
	// Callees are the resolved module-internal targets, in declaration
	// order. Empty for calls that leave the module.
	Callees []*FuncNode
}

// A Program is the whole-module view handed to every analyzer: every
// unit, every function in every unit, and the call edges between them.
type Program struct {
	Fset  *token.FileSet
	Units []*Unit
	// Nodes holds every function in deterministic (file, offset) order.
	Nodes []*FuncNode

	byObj   map[*types.Func]*FuncNode
	byKey   map[string]*FuncNode
	byLit   map[*ast.FuncLit]*FuncNode
	callers map[*FuncNode][]*FuncNode
	// siteOf maps each call expression to its site, so analyzers
	// walking statement structure can look up resolved callees.
	siteOf map[*ast.CallExpr]*CallSite
	// locks memoises each node's held-lock walk (lockSummary), which
	// both lock checks read.
	locks map[*FuncNode]*lockSummary
}

// SiteFor returns the call site record for call, or nil when call
// is not a tracked call (a conversion, or outside any function).
func (p *Program) SiteFor(call *ast.CallExpr) *CallSite { return p.siteOf[call] }

// Callers returns the nodes with at least one call site targeting n,
// in deterministic order.
func (p *Program) Callers(n *FuncNode) []*FuncNode { return p.callers[n] }

// NodeOf returns the node for a declared function object, resolving
// through the canonical key so objects from different type-check
// universes (a package's own unit vs. the form its importers see) land
// on the same node.
func (p *Program) NodeOf(obj *types.Func) *FuncNode {
	if n := p.byObj[obj]; n != nil {
		return n
	}
	return p.byKey[obj.FullName()]
}

// BuildProgram constructs the call graph over units. Units must share
// one token.FileSet (the loader guarantees this).
func BuildProgram(units []*Unit) *Program {
	p := &Program{
		Units:  units,
		byObj:  make(map[*types.Func]*FuncNode),
		byKey:  make(map[string]*FuncNode),
		byLit:  make(map[*ast.FuncLit]*FuncNode),
		siteOf: make(map[*ast.CallExpr]*CallSite),
		locks:  make(map[*FuncNode]*lockSummary),
	}
	if len(units) > 0 {
		p.Fset = units[0].Fset
	}

	// Pass 1: register every function declaration and literal.
	for _, u := range units {
		for _, f := range u.Files {
			test := u.TestFiles[f]
			ast.Inspect(f, func(n ast.Node) bool {
				switch d := n.(type) {
				case *ast.FuncDecl:
					obj, _ := u.Info.Defs[d.Name].(*types.Func)
					if obj == nil || d.Body == nil {
						return true
					}
					node := &FuncNode{
						Key:  obj.FullName(),
						Name: displayName(obj),
						Obj:  obj,
						Decl: d,
						Body: d.Body,
						Unit: u,
						Test: test,
						sig:  obj.Type().(*types.Signature),
					}
					p.byObj[obj] = node
					if _, dup := p.byKey[node.Key]; !dup {
						p.byKey[node.Key] = node
					}
					p.Nodes = append(p.Nodes, node)
				case *ast.FuncLit:
					pos := u.Fset.Position(d.Pos())
					sig, _ := u.Info.TypeOf(d.Type).(*types.Signature)
					node := &FuncNode{
						Key:  fmt.Sprintf("lit@%s:%d:%d", pos.Filename, pos.Line, pos.Column),
						Name: fmt.Sprintf("func literal at %s:%d", shortFile(pos.Filename), pos.Line),
						Lit:  d,
						Body: d.Body,
						Unit: u,
						Test: test,
						sig:  sig,
					}
					p.byLit[d] = node
					p.Nodes = append(p.Nodes, node)
				}
				return true
			})
		}
	}
	sort.Slice(p.Nodes, func(i, j int) bool {
		a, b := p.Fset.Position(p.Nodes[i].Pos()), p.Fset.Position(p.Nodes[j].Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})

	// Pass 2: find address-taken functions — declared functions or
	// method values referenced outside call position, and literals not
	// invoked directly. These are the candidate targets of calls
	// through function-typed values. Inspect visits a parent before its
	// children, so a call marks its callee expression, and a selector
	// its Sel ident, as not taken before either is reached. Without the
	// Sel idents, plain method calls (x.M()) would mark M address-taken
	// through the child ident and every method would become a
	// dynamic-dispatch candidate.
	notTaken := make(map[ast.Node]bool)
	markTaken := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			if node := p.NodeOf(fn); node != nil {
				node.addressTaken = true
			}
		}
	}
	for _, u := range units {
		for _, f := range u.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					notTaken[ast.Unparen(x.Fun)] = true
				case *ast.SelectorExpr:
					notTaken[x.Sel] = true
					if !notTaken[x] {
						markTaken(u.Info.Uses[x.Sel])
					}
				case *ast.Ident:
					if !notTaken[x] {
						markTaken(u.Info.Uses[x])
					}
				case *ast.FuncLit:
					if node := p.byLit[x]; node != nil && !notTaken[x] {
						node.addressTaken = true
					}
				}
				return true
			})
		}
	}

	// Dynamic-dispatch indexes: methods by name, and address-taken
	// functions by receiver-stripped signature string.
	methodsByName := make(map[string][]*FuncNode)
	takenBySig := make(map[string][]*FuncNode)
	for _, n := range p.Nodes {
		if n.Obj != nil && n.sig.Recv() != nil {
			methodsByName[n.Obj.Name()] = append(methodsByName[n.Obj.Name()], n)
		}
		if n.addressTaken && n.sig != nil {
			takenBySig[sigString(n.sig)] = append(takenBySig[sigString(n.sig)], n)
		}
	}

	// Pass 3: resolve call sites.
	for _, node := range p.Nodes {
		p.resolveCalls(node, methodsByName, takenBySig)
	}

	// Reverse edges.
	p.callers = make(map[*FuncNode][]*FuncNode)
	for _, n := range p.Nodes {
		seen := make(map[*FuncNode]bool)
		for _, cs := range n.Calls {
			for _, c := range cs.Callees {
				if !seen[c] {
					seen[c] = true
					p.callers[c] = append(p.callers[c], n)
				}
			}
		}
	}
	return p
}

// resolveCalls walks node's own body and records one CallSite per
// call.
func (p *Program) resolveCalls(node *FuncNode, methodsByName, takenBySig map[string][]*FuncNode) {
	u := node.Unit
	launched := make(map[*ast.CallExpr]bool) // calls of go statements
	node.inspect(func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			launched[g.Call] = true // visited before its call
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := u.Info.Types[call.Fun]; ok && tv.IsType() {
			return true // conversion, not a call
		}
		cs := &CallSite{Call: call, Go: launched[call]}
		fun := ast.Unparen(call.Fun)
		switch f := fun.(type) {
		case *ast.FuncLit:
			if lit := p.byLit[f]; lit != nil {
				cs.Callees = []*FuncNode{lit}
			}
		case *ast.Ident:
			switch obj := u.Info.Uses[f].(type) {
			case *types.Builtin, *types.TypeName, nil:
				return true
			case *types.Func:
				if t := p.NodeOf(obj); t != nil {
					cs.Callees = []*FuncNode{t}
				}
			case *types.Var:
				cs.Dynamic = true
				cs.Callees = matchSig(takenBySig, obj.Type())
			}
		case *ast.SelectorExpr:
			if sel, ok := u.Info.Selections[f]; ok {
				switch sel.Kind() {
				case types.MethodVal:
					fn := sel.Obj().(*types.Func)
					if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
						cs.Dynamic = true
						cs.Callees = matchMethods(methodsByName[fn.Name()], fn)
					} else if t := p.NodeOf(fn); t != nil {
						cs.Callees = []*FuncNode{t}
					}
				case types.FieldVal:
					cs.Dynamic = true
					cs.Callees = matchSig(takenBySig, sel.Type())
				default:
					return true
				}
			} else {
				switch obj := u.Info.Uses[f.Sel].(type) {
				case *types.Func: // qualified pkg.F
					if t := p.NodeOf(obj); t != nil {
						cs.Callees = []*FuncNode{t}
					}
				case *types.Var: // qualified package-level func var
					cs.Dynamic = true
					cs.Callees = matchSig(takenBySig, obj.Type())
				default:
					return true
				}
			}
		default:
			// Call of a call result, index expression, etc.
			if t := u.Info.TypeOf(fun); t != nil {
				if _, ok := t.Underlying().(*types.Signature); ok {
					cs.Dynamic = true
					cs.Callees = matchSig(takenBySig, t)
				}
			}
		}
		node.Calls = append(node.Calls, cs)
		p.siteOf[call] = cs
		return true
	})
}

// inspect visits the node's own body depth-first. It never enters a
// nested function literal: each literal is its own FuncNode. visit
// returns false to skip a subtree.
func (n *FuncNode) inspect(visit func(ast.Node) bool) { inspectOwn(n.Body, visit) }

// inspectOwn visits root's subtree like ast.Inspect, minus nested
// function literals and the trailing nil calls.
func inspectOwn(root ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit || n == nil {
			return false
		}
		return visit(n)
	})
}

// matchSig returns address-taken nodes whose signature renders
// identically to t's underlying signature.
func matchSig(takenBySig map[string][]*FuncNode, t types.Type) []*FuncNode {
	if t == nil {
		return nil
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return nil
	}
	return takenBySig[sigString(sig)]
}

// matchMethods returns the candidate implementations of interface
// method fn: module methods with the same name and identical
// receiver-stripped signature. Name+signature matching (rather than
// types.Implements) stays correct when the interface and the
// implementation come from different type-check universes of the same
// module; the cost is a few extra edges between identically-shaped
// methods, which only makes facts more conservative.
func matchMethods(candidates []*FuncNode, fn *types.Func) []*FuncNode {
	want := sigString(fn.Type().(*types.Signature))
	var out []*FuncNode
	for _, c := range candidates {
		if sigString(c.sig) == want {
			out = append(out, c)
		}
	}
	return out
}

// sigString renders a signature with package-path qualification and no
// receiver or parameter names, as the cross-universe comparison key.
// types.TypeString alone would keep parameter names, so func(n int) and
// func(int) — identical types — would never match.
func sigString(sig *types.Signature) string {
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString("func(")
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		t := sig.Params().At(i).Type()
		if sig.Variadic() && i == sig.Params().Len()-1 {
			b.WriteString("...")
			t = t.(*types.Slice).Elem()
		}
		b.WriteString(types.TypeString(t, qual))
	}
	b.WriteByte(')')
	for i := 0; i < sig.Results().Len(); i++ {
		b.WriteByte(',')
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	return b.String()
}

// displayName renders a declared function for diagnostics:
// "engine.(*LockManager).AcquireExclusive", "serve.New".
func displayName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type()
		ptr := ""
		if pt, ok := rt.(*types.Pointer); ok {
			rt = pt.Elem()
			ptr = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}

func shortFile(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}
