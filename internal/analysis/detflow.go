package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DetFlowAnalyzer generalizes wallclock + maporder across call
// boundaries: it taints values derived from nondeterministic sources —
// the wall clock, the process-global math/rand source, map-iteration
// order — propagates the taint through assignments, returns, and
// arguments over the call graph, and reports any tainted value that
// reaches a determinism sink: the snap encoders, MarshalDeterministic/
// EncodeTo snapshot methods, query-store state, or an fmt print/Fprint
// report writer.
//
// The sanctioned wall-clock packages (internal/sim, internal/wire,
// internal/serve) still *produce* taint here. wallclock already bans
// raw clock reads everywhere else; detflow's whole value is catching a
// sanctioned read whose result then leaks into deterministic output —
// e.g. a serve-layer wall timestamp finding its way into a Query Store
// snapshot that fleet runs promise to reproduce byte-for-byte.
//
// The analysis is deliberately flow-insensitive within a function
// (taint only accrues, except that sorting a map-order-tainted slice
// clears it, mirroring maporder) and does not track taint captured by
// closures from their enclosing function. Both choices under-report;
// neither invents findings.
var DetFlowAnalyzer = &Analyzer{
	Name:       "detflow",
	Doc:        "nondeterministic value (wall clock, global rand, map order) flowing into a deterministic sink across calls",
	SkipTests:  true,
	RunProgram: runDetFlow,
}

// Taint kinds, phrased for diagnostics.
const (
	kindWall     = "wall-clock time"
	kindRand     = "global math/rand"
	kindMapOrder = "map-iteration order"
)

// A taintInfo says where a value's nondeterminism originates.
type taintInfo struct {
	kind   string
	origin token.Pos
}

func detRetKey(n *FuncNode) string { return "detflow.ret:" + n.Key }
func detParamKey(n *FuncNode, i int) string {
	return "detflow.param:" + n.Key + "#" + strconv.Itoa(i)
}
func detRecvKey(n *FuncNode) string { return "detflow.param:" + n.Key + "#recv" }

func runDetFlow(pass *ProgramPass) {
	prog := pass.Prog

	// Phase 1: propagate return- and parameter-taint facts to a fixed
	// point. Facts are monotone (set once, never changed), so the
	// driver converges.
	prog.FixedPoint(func(n *FuncNode) []*FuncNode {
		// internal/sim is a taint barrier: the simulation substrate's
		// whole contract is that values it hands out are deterministic
		// for a given seed. Without the barrier, conservative interface
		// resolution would let sim.WallClock.Now's taint flow out of
		// every sim.Clock.Now call site and flood the module.
		if pkgPathHasSuffix(unitPkgPath(n.Unit), simPkgSuffix) {
			return nil
		}
		sc := newDetScan(pass, n)
		sc.run()
		var changed []*FuncNode
		if t := sc.returnTaint(); t != nil && pass.Facts.GetKey(detRetKey(n)) == nil {
			pass.Facts.SetKey(detRetKey(n), t)
			changed = append(changed, n)
		}
		changed = append(changed, sc.propagateArgs()...)
		return changed
	})

	// Phase 2: with facts stable, report tainted values reaching sinks.
	for _, n := range prog.Nodes {
		if n.Test {
			continue
		}
		sc := newDetScan(pass, n)
		sc.run()
		sc.reportSinks()
	}
}

// unitPkgPath strips the ".test" unit suffix back to the import path.
// pkgPathHasSuffix (metricsdiscipline.go) is its suffix-matching
// companion.
func unitPkgPath(u *Unit) string { return strings.TrimSuffix(u.Path, ".test") }

// --- per-function taint scan ------------------------------------------

type detScan struct {
	pass     *ProgramPass
	prog     *Program
	node     *FuncNode
	info     *types.Info
	taint    map[types.Object]*taintInfo
	ranges   [][2]token.Pos // body spans of range-over-map statements
	changed  bool
	reported map[token.Pos]bool // taint origins already reported (one finding each)
}

func newDetScan(pass *ProgramPass, n *FuncNode) *detScan {
	return &detScan{
		pass:  pass,
		prog:  pass.Prog,
		node:  n,
		info:  n.Unit.Info,
		taint: make(map[types.Object]*taintInfo),
	}
}

// inspect walks the node's own body, never descending into nested
// function literals — each literal is its own FuncNode.
func (sc *detScan) inspect(fn func(ast.Node) bool) {
	ast.Inspect(sc.node.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return fn(n)
	})
}

func (sc *detScan) run() {
	// Seed parameters (and the receiver) from caller-exported facts.
	for i, obj := range paramObjs(sc.info, sc.node) {
		if obj == nil {
			continue
		}
		if t, ok := sc.pass.Facts.GetKey(detParamKey(sc.node, i)).(*taintInfo); ok {
			sc.taint[obj] = t
		}
	}
	if recv := recvObj(sc.info, sc.node); recv != nil {
		if t, ok := sc.pass.Facts.GetKey(detRecvKey(sc.node)).(*taintInfo); ok {
			sc.taint[recv] = t
		}
	}

	sc.inspect(func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && underMap(sc.info.TypeOf(rs.X)) != nil {
			sc.ranges = append(sc.ranges, [2]token.Pos{rs.Body.Pos(), rs.Body.End()})
		}
		return true
	})

	// Flow-insensitive local propagation to a (bounded) fixed point.
	for pass := 0; pass < 8; pass++ {
		sc.changed = false
		sc.inspect(func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				sc.assign(st)
			case *ast.ValueSpec:
				sc.valueSpec(st)
			}
			return true
		})
		if !sc.changed {
			break
		}
	}
}

// assign propagates RHS taint to LHS targets and applies the two
// map-order accrual rules inside range-over-map bodies.
func (sc *detScan) assign(st *ast.AssignStmt) {
	if region, in := sc.mapRangeAt(st.Pos()); in {
		for i, lhs := range st.Lhs {
			obj := rootObj(sc.info, lhs)
			if obj == nil || within(obj.Pos(), region) {
				continue // loop-local accumulation dies with the loop
			}
			if sc.sortedAfter(obj.Name(), st.Pos()) {
				continue // canonicalized before use, mirroring maporder
			}
			switch {
			case st.Tok == token.ASSIGN && i < len(st.Rhs) && isSelfAppend(sc.info, lhs, st.Rhs[i]):
				// x = append(x, ...) keyed by map order.
				sc.setTaint(obj, &taintInfo{kind: kindMapOrder, origin: st.Pos()})
			case st.Tok != token.ASSIGN && st.Tok != token.DEFINE && isFloat(sc.info.TypeOf(lhs)):
				// sum += f: float accumulation order is observable.
				sc.setTaint(obj, &taintInfo{kind: kindMapOrder, origin: st.Pos()})
			}
		}
	}
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			sc.setExprTarget(st.Lhs[i], sc.exprTaint(st.Rhs[i]))
		}
	} else if len(st.Rhs) == 1 {
		t := sc.exprTaint(st.Rhs[0])
		for _, lhs := range st.Lhs {
			sc.setExprTarget(lhs, t)
		}
	}
}

func (sc *detScan) valueSpec(vs *ast.ValueSpec) {
	if len(vs.Values) == len(vs.Names) {
		for i, name := range vs.Names {
			sc.setIdent(name, sc.exprTaint(vs.Values[i]))
		}
	} else if len(vs.Values) == 1 {
		t := sc.exprTaint(vs.Values[0])
		for _, name := range vs.Names {
			sc.setIdent(name, t)
		}
	}
}

// setExprTarget taints the root object of an assignment target: an
// ident directly, a field/element write (s.x = t, s[i] = t) by tainting
// the containing variable.
func (sc *detScan) setExprTarget(lhs ast.Expr, t *taintInfo) {
	if t == nil {
		return
	}
	sc.setTaint(rootObj(sc.info, lhs), t)
}

func (sc *detScan) setIdent(id *ast.Ident, t *taintInfo) {
	if t == nil || id.Name == "_" {
		return
	}
	obj := sc.info.Defs[id]
	if obj == nil {
		obj = sc.info.Uses[id]
	}
	sc.setTaint(obj, t)
}

func (sc *detScan) setTaint(obj types.Object, t *taintInfo) {
	if obj == nil || t == nil {
		return
	}
	if _, ok := sc.taint[obj]; !ok {
		sc.taint[obj] = t
		sc.changed = true
	}
}

// exprTaint resolves the taint of an expression, or nil.
func (sc *detScan) exprTaint(e ast.Expr) *taintInfo {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := sc.info.Uses[x]
		if obj == nil {
			obj = sc.info.Defs[x]
		}
		if obj != nil {
			return sc.taint[obj]
		}
		return nil
	case *ast.CallExpr:
		return sc.callTaint(x)
	case *ast.ParenExpr:
		return sc.exprTaint(x.X)
	case *ast.SelectorExpr:
		return sc.exprTaint(x.X) // a field of a tainted value is tainted
	case *ast.StarExpr:
		return sc.exprTaint(x.X)
	case *ast.UnaryExpr:
		return sc.exprTaint(x.X)
	case *ast.BinaryExpr:
		if t := sc.exprTaint(x.X); t != nil {
			return t
		}
		return sc.exprTaint(x.Y)
	case *ast.IndexExpr:
		if t := sc.exprTaint(x.X); t != nil {
			return t
		}
		return sc.exprTaint(x.Index)
	case *ast.SliceExpr:
		return sc.exprTaint(x.X)
	case *ast.TypeAssertExpr:
		return sc.exprTaint(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if t := sc.exprTaint(el); t != nil {
				return t
			}
		}
		return nil
	case *ast.KeyValueExpr:
		return sc.exprTaint(x.Value)
	}
	return nil
}

// callTaint classifies a call's result: a nondeterminism source, a
// module function with a return-taint fact, a conversion or external
// pass-through of a tainted operand, or clean.
func (sc *detScan) callTaint(call *ast.CallExpr) *taintInfo {
	// Conversions pass taint through.
	if tv, ok := sc.info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return sc.exprTaint(call.Args[0])
		}
		return nil
	}

	// Direct sources.
	if path, name, ok := pkgFunc(sc.info, call); ok {
		switch {
		case path == "time" && (name == "Now" || name == "Since" || name == "Until"):
			return &taintInfo{kind: kindWall, origin: call.Pos()}
		case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name]:
			return &taintInfo{kind: kindRand, origin: call.Pos()}
		}
	}
	if fn, sel := methodOf(sc.info, call); fn != nil && wallTimeFuncs[fn.Name()] {
		// A call on a *concrete* sim.WallClock receiver is a source:
		// sanctioned to read, still nondeterministic to emit. Interface
		// dispatch through sim.Clock is NOT — the virtual clock behind
		// it is deterministic by design, and internal/sim is a taint
		// barrier (see runDetFlow) so WallClock's own time.Now does not
		// leak through as a return fact either.
		if name, pkg := namedOwner(sc.info.TypeOf(sel.X)); name == "WallClock" && pkgPathHasSuffix(pkg, simPkgSuffix) {
			return &taintInfo{kind: kindWall, origin: call.Pos()}
		}
	}

	// Module callees: facts are authoritative.
	if site := sc.prog.SiteFor(call); site != nil && len(site.Callees) > 0 {
		for _, c := range site.Callees {
			if t, ok := sc.pass.Facts.GetKey(detRetKey(c)).(*taintInfo); ok {
				return t
			}
		}
		return nil
	}

	// Builtins and external functions: conservative pass-through
	// (fmt.Sprintf of a tainted value is tainted; len is not).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "make", "new":
			return nil
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if t := sc.exprTaint(sel.X); t != nil {
			if _, isPkg := sc.info.Uses[rootIdent(sel.X)].(*types.PkgName); !isPkg {
				return t // method on a tainted receiver
			}
		}
	}
	for _, a := range call.Args {
		if t := sc.exprTaint(a); t != nil {
			return t
		}
	}
	return nil
}

// sortedAfter reports whether a sort call later in the body
// canonicalizes target. It must run at accrual time, before the taint
// can propagate to derived values — clearing afterwards would leave
// the derivatives tainted.
func (sc *detScan) sortedAfter(target string, from token.Pos) bool {
	found := false
	sc.inspect(func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < from || !isSortCall(sc.info, call) {
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

// returnTaint reports whether any return value of the node is tainted.
func (sc *detScan) returnTaint() *taintInfo {
	var found *taintInfo
	sc.inspect(func(n ast.Node) bool {
		if found != nil {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if t := sc.exprTaint(r); t != nil {
				found = t
				return false
			}
		}
		return true
	})
	return found
}

// propagateArgs exports parameter-taint facts to module callees whose
// call sites receive tainted arguments (or receivers), returning the
// callees whose facts changed.
func (sc *detScan) propagateArgs() []*FuncNode {
	var changed []*FuncNode
	for _, site := range sc.node.Calls {
		if len(site.Callees) == 0 {
			continue
		}
		var recvTaint *taintInfo
		if sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr); ok {
			if s, ok := sc.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				recvTaint = sc.exprTaint(sel.X)
			}
		}
		for _, c := range site.Callees {
			if recvTaint != nil && sc.pass.Facts.GetKey(detRecvKey(c)) == nil {
				sc.pass.Facts.SetKey(detRecvKey(c), recvTaint)
				changed = append(changed, c)
			}
			for i, arg := range site.Call.Args {
				t := sc.exprTaint(arg)
				if t == nil {
					continue
				}
				if sc.pass.Facts.GetKey(detParamKey(c, i)) == nil {
					sc.pass.Facts.SetKey(detParamKey(c, i), t)
					changed = append(changed, c)
				}
			}
		}
	}
	return changed
}

// --- sinks ------------------------------------------------------------

// fmtPrintFuncs are the fmt functions that write to a stream — the
// report-writer sinks. Sprint* are not sinks; they only propagate.
var fmtPrintFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// snapshotSinkMethods are deterministic-encoding entry points by name:
// every snapshot type in the repo writes itself through one of these.
var snapshotSinkMethods = map[string]bool{
	"MarshalDeterministic": true,
	"EncodeTo":             true,
}

func (sc *detScan) reportSinks() {
	sc.inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// fmt stream writers.
		if path, name, ok := pkgFunc(sc.info, call); ok && path == "fmt" && fmtPrintFuncs[name] {
			args := call.Args
			if strings.HasPrefix(name, "Fprint") && len(args) > 0 {
				args = args[1:] // the writer itself is not payload
			}
			for _, a := range args {
				if t := sc.exprTaint(a); t != nil {
					sc.report(call.Pos(), t, "fmt."+name+" report output")
					break
				}
			}
			return true
		}

		// Snapshot encoder methods, by canonical name.
		if fn, sel := methodOf(sc.info, call); fn != nil && snapshotSinkMethods[fn.Name()] {
			if t := sc.exprTaint(sel.X); t != nil {
				sc.report(call.Pos(), t, fn.Name()+" snapshot encoding")
				return true
			}
			for _, a := range call.Args {
				if t := sc.exprTaint(a); t != nil {
					sc.report(call.Pos(), t, fn.Name()+" snapshot encoding")
					break
				}
			}
			return true
		}

		// Module sinks by callee package: exported snap encoder entry
		// points, and the Query Store's state mutator. Unexported
		// helpers inside those packages (error formatters, local sorts)
		// are not sinks, and query-store *reads* only parameterize a
		// lookup — they do not persist the tainted value.
		site := sc.prog.SiteFor(call)
		if site == nil {
			return true
		}
		for _, c := range site.Callees {
			pkg := unitPkgPath(c.Unit)
			var sink string
			switch {
			case pkgPathHasSuffix(pkg, "internal/snap") && exportedNode(c):
				sink = c.Name + " (snap encoder)"
			case pkgPathHasSuffix(pkg, "internal/querystore") && strings.HasSuffix(c.Name, ".Record"):
				sink = c.Name + " (query-store state)"
			default:
				continue
			}
			for _, a := range call.Args {
				if t := sc.exprTaint(a); t != nil {
					sc.report(call.Pos(), t, sink)
					return true
				}
			}
		}
		return true
	})
}

// exportedNode reports whether the node is an exported declared
// function or method (literals are never exported).
func exportedNode(n *FuncNode) bool {
	return n.Decl != nil && n.Decl.Name.IsExported()
}

// report emits at most one finding per taint origin per function: a
// single nondeterministic origin otherwise fans out into one finding
// per encoder field write, drowning the signal.
func (sc *detScan) report(pos token.Pos, t *taintInfo, sink string) {
	if sc.reported == nil {
		sc.reported = make(map[token.Pos]bool)
	}
	if sc.reported[t.origin] {
		return
	}
	sc.reported[t.origin] = true
	sc.pass.Reportf(pos, "value derived from %s (origin %s) reaches deterministic sink %s; derive it via internal/sim or keep it out of deterministic output",
		t.kind, sc.prog.Fset.Position(t.origin), sink)
}

// --- small helpers ----------------------------------------------------

// paramObjs returns the node's parameter objects in declaration order;
// unnamed parameters hold a nil slot so indexes line up with arguments.
func paramObjs(info *types.Info, n *FuncNode) []types.Object {
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, f := range ft.Params.List {
		if len(f.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range f.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// recvObj returns the node's receiver object, or nil.
func recvObj(info *types.Info, n *FuncNode) types.Object {
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return nil
	}
	f := n.Decl.Recv.List[0]
	if len(f.Names) == 0 {
		return nil
	}
	return info.Defs[f.Names[0]]
}

// rootObj resolves the base variable of an lvalue chain: s.a[i].b → s.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj
}

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

func (sc *detScan) mapRangeAt(pos token.Pos) ([2]token.Pos, bool) {
	for _, r := range sc.ranges {
		if within(pos, r) {
			return r, true
		}
	}
	return [2]token.Pos{}, false
}

func within(pos token.Pos, r [2]token.Pos) bool { return pos >= r[0] && pos < r[1] }

// isSelfAppend reports whether rhs is append(<lhs>, ...) for the same
// base variable as lhs.
func isSelfAppend(info *types.Info, lhs, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	lo := rootObj(info, lhs)
	ao := rootObj(info, call.Args[0])
	return lo != nil && lo == ao
}
