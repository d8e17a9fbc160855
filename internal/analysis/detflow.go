package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
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
	Name:      "detflow",
	Doc:       "nondeterministic value (wall clock, global rand, map order) flowing into a deterministic sink across calls",
	SkipTests: true,
	Run:       runDetFlow,
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

// detFacts are detflow's interprocedural facts: the taint a node's
// return values carry, and the taint its callers pass in, by parameter
// index (recvSlot for the receiver). Facts are set once, never changed.
type detFacts struct {
	ret map[*FuncNode]*taintInfo
	in  map[*FuncNode]map[int]*taintInfo
}

const recvSlot = -1

// setIn records t as the taint flowing into n's slot unless one is
// already recorded, and reports whether it did.
func (f *detFacts) setIn(n *FuncNode, slot int, t *taintInfo) bool {
	if f.in[n][slot] != nil {
		return false
	}
	if f.in[n] == nil {
		f.in[n] = make(map[int]*taintInfo)
	}
	f.in[n][slot] = t
	return true
}

func runDetFlow(pass *Pass) {
	prog := pass.Prog
	facts := &detFacts{ret: make(map[*FuncNode]*taintInfo), in: make(map[*FuncNode]map[int]*taintInfo)}

	// Phase 1: propagate return- and parameter-taint facts to a fixed
	// point. Facts are monotone (set once, never changed), so the
	// driver converges.
	prog.FixedPoint(func(n *FuncNode) []*FuncNode {
		// internal/sim is a taint barrier: the simulation substrate's
		// whole contract is that values it hands out are deterministic
		// for a given seed. Without the barrier, conservative interface
		// resolution would let sim.WallClock.Now's taint flow out of
		// every sim.Clock.Now call site and flood the module.
		if inPkg(n.Unit.Path, simPkgSuffix) {
			return nil
		}
		sc := newDetScan(pass, facts, n)
		sc.run()
		var changed []*FuncNode
		if t := sc.returnTaint(); t != nil && facts.ret[n] == nil {
			facts.ret[n] = t
			changed = append(changed, n)
		}
		changed = append(changed, sc.propagateArgs()...)
		return changed
	})

	// Phase 2: with facts stable, report tainted values reaching sinks.
	// Test functions feed facts above but report nothing.
	for _, n := range prog.Nodes {
		if n.Test {
			continue
		}
		sc := newDetScan(pass, facts, n)
		sc.run()
		sc.reportSinks()
	}
}

// --- per-function taint scan ------------------------------------------

type detScan struct {
	pass     *Pass
	facts    *detFacts
	prog     *Program
	node     *FuncNode
	info     *types.Info
	taint    map[types.Object]*taintInfo
	ranges   [][2]token.Pos // body spans of range-over-map statements
	changed  bool
	reported map[token.Pos]bool // taint origins already reported (one finding each)
}

func newDetScan(pass *Pass, facts *detFacts, n *FuncNode) *detScan {
	return &detScan{
		pass:  pass,
		facts: facts,
		prog:  pass.Prog,
		node:  n,
		info:  n.Unit.Info,
		taint: make(map[types.Object]*taintInfo),
	}
}

func (sc *detScan) run() {
	// Seed parameters (and the receiver) from caller-exported facts.
	in := sc.facts.in[sc.node]
	for i, obj := range paramObjs(sc.info, sc.node) {
		if t := in[i]; obj != nil && t != nil {
			sc.taint[obj] = t
		}
	}
	if t := in[recvSlot]; t != nil {
		if recv := recvObj(sc.info, sc.node); recv != nil {
			sc.taint[recv] = t
		}
	}

	sc.node.inspect(func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && underMap(sc.info.TypeOf(rs.X)) != nil {
			sc.ranges = append(sc.ranges, [2]token.Pos{rs.Body.Pos(), rs.Body.End()})
		}
		return true
	})

	// Flow-insensitive local propagation to a (bounded) fixed point.
	for pass := 0; pass < 8; pass++ {
		sc.changed = false
		sc.node.inspect(func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				sc.assign(st)
			case *ast.ValueSpec:
				names := make([]ast.Expr, len(st.Names))
				for i, id := range st.Names {
					names[i] = id
				}
				sc.flow(names, st.Values)
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
			if sortedAfter(sc.info, sc.node.Body, obj.Name(), st.Pos()) {
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
	sc.flow(st.Lhs, st.Rhs)
}

// flow taints the root object of each target (s for s.x = t or
// s[i] = t) with its value's taint: pairwise, or from one multi-value
// expression to every target.
func (sc *detScan) flow(lhs, rhs []ast.Expr) {
	for i, target := range lhs {
		switch {
		case len(rhs) == len(lhs):
			sc.setTaint(rootObj(sc.info, target), sc.exprTaint(rhs[i]))
		case len(rhs) == 1:
			sc.setTaint(rootObj(sc.info, target), sc.exprTaint(rhs[0]))
		}
	}
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
		return sc.taint[sc.info.ObjectOf(x)]
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
		if isSimWallClock(sc.info.TypeOf(sel.X)) {
			return &taintInfo{kind: kindWall, origin: call.Pos()}
		}
	}

	// Module callees: facts are authoritative.
	if site := sc.prog.SiteFor(call); site != nil && len(site.Callees) > 0 {
		for _, c := range site.Callees {
			if t := sc.facts.ret[c]; t != nil {
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

// returnTaint reports whether any return value of the node is tainted.
func (sc *detScan) returnTaint() *taintInfo {
	var found *taintInfo
	sc.node.inspect(func(n ast.Node) bool {
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
			if recvTaint != nil && sc.facts.setIn(c, recvSlot, recvTaint) {
				changed = append(changed, c)
			}
			for i, arg := range site.Call.Args {
				if t := sc.exprTaint(arg); t != nil && sc.facts.setIn(c, i, t) {
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
	sc.node.inspect(func(n ast.Node) bool {
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
			var sink string
			switch {
			case inPkg(c.Unit.Path, "internal/snap") && exportedNode(c):
				sink = c.Name + " (snap encoder)"
			case inPkg(c.Unit.Path, "internal/querystore") && strings.HasSuffix(c.Name, ".Record"):
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
	return info.ObjectOf(id)
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
