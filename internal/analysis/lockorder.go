package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockOrderAnalyzer upgrades lockdiscipline from intra-function to
// whole-program: it derives a mutex-acquisition-order graph from
// per-function lock summaries propagated over the call graph, and
// reports
//
//  1. cycles in the order graph — two call paths that acquire the same
//     pair of mutexes in opposite orders can deadlock under
//     concurrency even though every individual function looks fine;
//  2. call sites that may re-acquire a mutex already held on the path
//     — the cross-function form of lockdiscipline's double-lock rule,
//     which self-deadlocks on the spot (sync.Mutex is not reentrant).
//
// Mutexes are identified structurally: struct fields merge across
// instances ("serve.Server.mu" is one lock to the analyzer no matter
// which server), package vars by name, locals by declaration site.
// Merging instances over-approximates — locking a *different*
// instance of the same field is flagged as a re-acquire — which is the
// conservative direction for a deadlock check; genuinely
// instance-disjoint designs carry an audited //lint:ignore. Read locks
// (RLock) are ignored: shared locks nest legitimately.
//
// Only write-mode sync.Mutex/RWMutex operations participate. Calls via
// `go` are excluded (the goroutine does not inherit the caller's
// locks), as are deferred calls (they run at return, after the
// deferred unlocks this repo pairs them with).
var LockOrderAnalyzer = &Analyzer{
	Name:      "lockorder",
	Doc:       "whole-program mutex acquisition-order cycles and re-acquiring a held mutex through a call chain",
	SkipTests: true,
	Run:       runLockOrder,
}

// A lockSite is one static acquisition of an identified mutex.
type lockSite struct {
	key stateKey
	pos token.Pos
}

// A heldCall is a call made while at least one write lock is held.
type heldCall struct {
	pos     token.Pos
	callees []*FuncNode
	held    []lockSite // sorted by key
}

// A lockSummary is one function's local lock behavior, from the one
// branch-aware held-lock walk (lockSummarizer) both lock checks read.
type lockSummary struct {
	acquires map[string]lockSite // first local acquisition per key
	pairs    [][2]lockSite       // [A held, B acquired] in-function order edges
	calls    []heldCall
	relocks  []relock
}

// A relock is a Lock of a receiver the path already holds — the
// in-function double lock lockdiscipline reports. Receivers compare as
// rendered ("a.mu" vs "b.mu"), not by lockorder's per-field identity,
// so two values of one type never collide.
type relock struct {
	pos  token.Pos
	recv string
	held token.Pos // the Lock that acquired it
}

// lockSummary returns n's summary, computed on first use.
func (p *Program) lockSummary(n *FuncNode) *lockSummary {
	s := p.locks[n]
	if s == nil {
		s = summarizeLocks(p, n)
		p.locks[n] = s
	}
	return s
}

// runLockOrder ignores test functions entirely: a test that locks
// out of order contributes no edges, and its may-acquire set stays
// empty for callers.
func runLockOrder(pass *Pass) {
	prog := pass.Prog

	// Fixed point: may[f] = f's local acquisitions ∪ may[callees].
	may := make(map[*FuncNode]map[string]lockSite)
	prog.FixedPoint(func(n *FuncNode) []*FuncNode {
		if n.Test {
			return nil
		}
		cur := may[n]
		next := maps.Clone(prog.lockSummary(n).acquires)
		for _, cs := range n.Calls {
			if cs.Go {
				continue
			}
			for _, c := range cs.Callees {
				for k, v := range may[c] {
					if _, ok := next[k]; !ok {
						next[k] = v
					}
				}
			}
		}
		if len(next) == len(cur) {
			return nil
		}
		may[n] = next
		return []*FuncNode{n}
	})

	// Rule 2: re-acquire through a call chain, and collection of
	// cross-function order edges.
	edges := make(map[string]map[string]orderEdge)
	display := make(map[string]string)
	addEdge := func(from, to lockSite, pos token.Pos, via string) {
		if from.key.Key == to.key.Key {
			return
		}
		display[from.key.Key] = from.key.Display
		display[to.key.Key] = to.key.Display
		m := edges[from.key.Key]
		if m == nil {
			m = make(map[string]orderEdge)
			edges[from.key.Key] = m
		}
		if _, ok := m[to.key.Key]; !ok {
			m[to.key.Key] = orderEdge{pos: pos, via: via}
		}
	}

	for _, n := range prog.Nodes {
		if n.Test {
			continue
		}
		sum := prog.lockSummary(n)
		for _, pr := range sum.pairs {
			addEdge(pr[0], pr[1], pr[1].pos, "")
		}
		for _, hc := range sum.calls {
			reported := false
			for _, c := range hc.callees {
				acq := may[c]
				if acq == nil {
					continue
				}
				for _, h := range hc.held {
					if site, ok := acq[h.key.Key]; ok && !reported {
						reported = true
						pass.Reportf(hc.pos, "call to %s while holding %s may re-acquire it (Lock at %s); sync mutexes are not reentrant, this deadlocks",
							c.Name, h.key.Display, prog.Fset.Position(site.pos))
					}
				}
				acquired := sortedSites(acq)
				for _, h := range hc.held {
					for _, to := range acquired {
						addEdge(h, to, hc.pos, c.Name)
					}
				}
			}
		}
	}

	// Rule 1: cycles. Find strongly connected components of the order
	// graph; any SCC with ≥2 mutexes means two opposite-order
	// acquisition paths exist.
	for _, scc := range stronglyConnected(edges) {
		if len(scc) < 2 {
			continue
		}
		var parts []string
		minPos := token.Pos(0)
		for _, from := range scc {
			for _, to := range scc {
				e, ok := edges[from][to]
				if !ok {
					continue
				}
				via := ""
				if e.via != "" {
					via = " via " + e.via
				}
				parts = append(parts, fmt.Sprintf("%s → %s (%s%s)",
					display[from], display[to], prog.Fset.Position(e.pos), via))
				if minPos == 0 || e.pos < minPos {
					minPos = e.pos
				}
			}
		}
		names := make([]string, len(scc))
		for i, k := range scc {
			names[i] = display[k]
		}
		pass.Reportf(minPos, "lock acquisition order cycle between %s: %s; opposite-order paths can deadlock under concurrency",
			strings.Join(names, ", "), strings.Join(parts, "; "))
	}
}

// An orderEdge records the first witness of "from is held while to is
// acquired": the acquisition (or call) position and, for edges crossing
// a call, the callee that performs the acquisition.
type orderEdge struct {
	pos token.Pos
	via string // callee display name, "" for in-function edges
}

// stronglyConnected returns the SCCs of the order graph (Tarjan's
// algorithm) with each component and the component list
// deterministically sorted. Recursion depth is bounded by the number of
// distinct mutexes.
func stronglyConnected(edges map[string]map[string]orderEdge) [][]string {
	nodes := make(map[string]bool)
	for from, tos := range edges {
		nodes[from] = true
		for to := range tos {
			nodes[to] = true
		}
	}
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	var visit func(v string)
	visit = func(v string) {
		index[v], low[v] = len(index), len(index)
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(edges[v]) {
			if _, seen := index[w]; !seen {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []string
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		sort.Strings(comp)
		sccs = append(sccs, comp)
	}
	for _, v := range sortedKeys(nodes) {
		if _, seen := index[v]; !seen {
			visit(v)
		}
	}
	sort.Slice(sccs, func(i, j int) bool { return sccs[i][0] < sccs[j][0] })
	return sccs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// --- local summary ----------------------------------------------------

// summarizeLocks computes the node's local lock summary with
// branch-aware held tracking: branches merge by intersection,
// terminated branches contribute nothing, so the summary under-reports
// rather than inventing held sets.
func summarizeLocks(prog *Program, n *FuncNode) *lockSummary {
	sc := &lockSummarizer{prog: prog, node: n, sum: &lockSummary{acquires: make(map[string]lockSite)}}
	sc.stmts(n.Body.List, &heldLocks{byKey: map[string]lockSite{}, byRecv: map[string]token.Pos{}})
	return sc.sum
}

// heldLocks is the write locks held on the current path, both by mutex
// identity (lockorder's key, which merges instances) and by rendered
// receiver (lockdiscipline's key, which does not).
type heldLocks struct {
	byKey  map[string]lockSite
	byRecv map[string]token.Pos
}

func (h *heldLocks) clone() *heldLocks {
	return &heldLocks{maps.Clone(h.byKey), maps.Clone(h.byRecv)}
}

// meet keeps what both paths hold.
func (h *heldLocks) meet(o *heldLocks) *heldLocks {
	return &heldLocks{intersect(h.byKey, o.byKey), intersect(h.byRecv, o.byRecv)}
}

func intersect[V any](a, b map[string]V) map[string]V {
	out := make(map[string]V)
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

type lockSummarizer struct {
	prog *Program
	node *FuncNode
	sum  *lockSummary
}

func (sc *lockSummarizer) stmts(list []ast.Stmt, held *heldLocks) bool {
	for _, s := range list {
		if sc.stmt(s, held) {
			return true
		}
	}
	return false
}

// stmt processes one statement, updating held; it reports whether the
// statement definitely terminates the enclosing list.
func (sc *lockSummarizer) stmt(s ast.Stmt, held *heldLocks) bool {
	switch st := s.(type) {
	case *ast.ExprStmt:
		sc.expr(st.X, held)
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			sc.expr(e, held)
		}
		for _, e := range st.Lhs {
			sc.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			sc.expr(e, held)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IncDecStmt:
		sc.expr(st.X, held)
	case *ast.SendStmt:
		sc.expr(st.Chan, held)
		sc.expr(st.Value, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						sc.expr(e, held)
					}
				}
			}
		}
	case *ast.BlockStmt:
		return sc.stmts(st.List, held)
	case *ast.LabeledStmt:
		return sc.stmt(st.Stmt, held)
	case *ast.IfStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		sc.expr(st.Cond, held)
		thenHeld := held.clone()
		thenTerm := sc.stmts(st.Body.List, thenHeld)
		elseHeld := held.clone()
		elseTerm := false
		if st.Else != nil {
			elseTerm = sc.stmt(st.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm && st.Else != nil:
			return true
		case thenTerm:
			*held = *elseHeld
		case elseTerm:
			*held = *thenHeld
		default:
			*held = *thenHeld.meet(elseHeld)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		if st.Cond != nil {
			sc.expr(st.Cond, held)
		}
		bodyHeld := held.clone()
		sc.stmts(st.Body.List, bodyHeld)
		if st.Post != nil {
			sc.stmt(st.Post, bodyHeld)
		}
		*held = *held.meet(bodyHeld)
	case *ast.RangeStmt:
		sc.expr(st.X, held)
		bodyHeld := held.clone()
		sc.stmts(st.Body.List, bodyHeld)
		*held = *held.meet(bodyHeld)
	case *ast.SwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		if st.Tag != nil {
			sc.expr(st.Tag, held)
		}
		sc.clauses(st.Body, held, hasDefaultClause(st.Body))
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			sc.stmt(st.Init, held)
		}
		sc.clauses(st.Body, held, hasDefaultClause(st.Body))
	case *ast.SelectStmt:
		sc.clauses(st.Body, held, true)
	case *ast.GoStmt:
		// The goroutine does not inherit the caller's locks; only the
		// synchronously-evaluated arguments are scanned.
		for _, a := range st.Call.Args {
			sc.expr(a, held)
		}
	case *ast.DeferStmt:
		// Runs at return, after this repo's deferred unlocks; args are
		// evaluated now though.
		for _, a := range st.Call.Args {
			sc.expr(a, held)
		}
	}
	return false
}

// clauses merges switch/select clause bodies by intersection. When the
// construct has no default (exhaustive=false) the unchanged entry state
// is one of the possibilities.
func (sc *lockSummarizer) clauses(body *ast.BlockStmt, held *heldLocks, exhaustive bool) {
	var results []*heldLocks
	if !exhaustive {
		results = append(results, held.clone())
	}
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				sc.stmt(c.Comm, held)
			}
			list = c.Body
		default:
			continue
		}
		ch := held.clone()
		if !sc.stmts(list, ch) {
			results = append(results, ch)
		}
	}
	if len(results) == 0 {
		return // every clause terminates; keep the entry state
	}
	merged := results[0]
	for _, r := range results[1:] {
		merged = merged.meet(r)
	}
	*held = *merged
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, clause := range body.List {
		if c, ok := clause.(*ast.CaseClause); ok && c.List == nil {
			return true
		}
	}
	return false
}

// expr walks e in evaluation order, updating held at mutex operations
// and recording calls made with locks held.
func (sc *lockSummarizer) expr(e ast.Expr, held *heldLocks) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		for _, a := range x.Args {
			sc.expr(a, held)
		}
		if recv, write, acquire, ok := mutexCall(sc.node.Unit.Info, x); ok {
			if write { // shared RLocks may legitimately nest
				sc.lockOp(x, recv, acquire, held)
			}
			return
		}
		sc.expr(x.Fun, held)
		if len(held.byKey) > 0 {
			if cs := sc.prog.SiteFor(x); cs != nil && len(cs.Callees) > 0 {
				sc.sum.calls = append(sc.sum.calls, heldCall{
					pos:     x.Pos(),
					callees: cs.Callees,
					held:    sortedSites(held.byKey),
				})
			}
		}
	case *ast.FuncLit:
		// Its own node; a held lock does not transfer into it unless it
		// is called here, which the CallExpr case above handles.
	case *ast.ParenExpr:
		sc.expr(x.X, held)
	case *ast.SelectorExpr:
		sc.expr(x.X, held)
	case *ast.StarExpr:
		sc.expr(x.X, held)
	case *ast.UnaryExpr:
		sc.expr(x.X, held)
	case *ast.BinaryExpr:
		sc.expr(x.X, held)
		sc.expr(x.Y, held)
	case *ast.IndexExpr:
		sc.expr(x.X, held)
		sc.expr(x.Index, held)
	case *ast.SliceExpr:
		sc.expr(x.X, held)
		sc.expr(x.Low, held)
		sc.expr(x.High, held)
		sc.expr(x.Max, held)
	case *ast.TypeAssertExpr:
		sc.expr(x.X, held)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			sc.expr(el, held)
		}
	case *ast.KeyValueExpr:
		sc.expr(x.Key, held)
		sc.expr(x.Value, held)
	}
}

// lockOp applies one write-mode Lock or Unlock of recv to held.
func (sc *lockSummarizer) lockOp(call *ast.CallExpr, recv ast.Expr, acquire bool, held *heldLocks) {
	info, fset := sc.node.Unit.Info, sc.prog.Fset
	key, ok := stateKeyOf(info, fset, recv)
	if !ok {
		pos := fset.Position(call.Pos())
		key = stateKey{
			Key:     fmt.Sprintf("mutex@%s:%d", pos.Filename, pos.Line),
			Display: types.ExprString(recv),
		}
	}
	name := types.ExprString(recv)
	if !acquire {
		delete(held.byKey, key.Key)
		delete(held.byRecv, name)
		return
	}
	site := lockSite{key: key, pos: call.Pos()}
	for _, h := range sortedSites(held.byKey) {
		sc.sum.pairs = append(sc.sum.pairs, [2]lockSite{h, site})
	}
	if _, seen := sc.sum.acquires[key.Key]; !seen {
		sc.sum.acquires[key.Key] = site
	}
	held.byKey[key.Key] = site
	if first, locked := held.byRecv[name]; locked {
		sc.sum.relocks = append(sc.sum.relocks, relock{pos: call.Pos(), recv: name, held: first})
	} else {
		held.byRecv[name] = call.Pos()
	}
}

func sortedSites(held map[string]lockSite) []lockSite {
	keys := sortedKeys(held)
	out := make([]lockSite, len(keys))
	for i, k := range keys {
		out[i] = held[k]
	}
	return out
}
