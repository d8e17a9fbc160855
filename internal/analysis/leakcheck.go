package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// LeakCheckAnalyzer enforces that goroutines launched in the
// long-lived server layers — internal/serve, internal/wire,
// internal/fleet — are provably joinable. A goroutine counts as
// joinable when the analysis can show one of:
//
//  1. it blocks on a shutdown signal: a receive/select/range on
//     ctx.Done(), on a channel some non-test code closes, or on a
//     channel passed in as a parameter (directly or via a static
//     callee);
//  2. it completes a sync.WaitGroup (wg.Done, possibly deferred or in
//     a callee) that some non-test code waits on — the Add-before-go /
//     Wait-in-Shutdown pattern;
//  3. it signals a join channel the launching function itself waits
//     on: the body closes or sends on a channel the launcher receives
//     from (the `go func() { ...; close(drained) }(); <-drained`
//     shutdown pattern).
//
// Anything else — including a `go` whose target the call graph cannot
// resolve — is reported. The repo's serve sessions leaked exactly this
// way before Shutdown grew its WaitGroup; the check makes the pattern
// structural. Deliberately fire-and-forget goroutines take an audited
// //lint:ignore leakcheck with the reason.
var LeakCheckAnalyzer = &Analyzer{
	Name:      "leakcheck",
	Doc:       "goroutines in serve/wire/fleet must be joinable (done/ctx select, waited WaitGroup, or join channel)",
	SkipTests: true,
	Run:       runLeakCheck,
}

// leakScopedPkgs are the package-path suffixes whose goroutine launches
// are policed. Simulation and analysis code spawn workers too, but
// those are request-scoped by construction; the serve path is where a
// leak accumulates for the life of the process.
var leakScopedPkgs = []string{"internal/serve", "internal/wire", "internal/fleet"}

// leakLocal is one function's locally-visible lifecycle behavior.
type leakLocal struct {
	blocks   bool            // blocks on ctx.Done/closed chan/param chan/time.After
	done     map[string]bool // WaitGroup keys this function Dones
	waits    map[string]bool // WaitGroup keys this function Waits
	signals  map[string]bool // channel keys this function closes or sends on
	receives map[string]bool // channel keys this function receives from
}

func runLeakCheck(pass *Pass) {
	prog := pass.Prog

	// Pass 1: per-node local scans, plus the global closed-channel and
	// waited-WaitGroup sets. Test code does not contribute: a test
	// harness draining a channel must not mask a production leak.
	locals := make(map[*FuncNode]*leakLocal, len(prog.Nodes))
	closedKeys := make(map[string]bool)
	waitedGroups := make(map[string]bool)
	for _, n := range prog.Nodes {
		if n.Test {
			continue
		}
		l := scanLeakLocal(prog, n)
		locals[n] = l
		for k := range l.signals {
			closedKeys[k] = true
		}
		for k := range l.waits {
			waitedGroups[k] = true
		}
	}

	// Pass 2: with the closed-key set known, receiving from a channel
	// that is closed (or sent on) somewhere blocks on a signal.
	for _, l := range locals {
		for k := range l.receives {
			l.blocks = l.blocks || closedKeys[k]
		}
	}

	// Pass 3: propagate blocks-on-signal and Done-sets through static,
	// non-go calls to a fixed point.
	blocks := make(map[*FuncNode]bool)
	done := make(map[*FuncNode]map[string]bool)
	prog.FixedPoint(func(n *FuncNode) []*FuncNode {
		l := locals[n]
		if l == nil {
			return nil
		}
		b := l.blocks
		d := maps.Clone(l.done)
		for _, site := range n.Calls {
			if site.Go {
				continue
			}
			for _, c := range site.Callees {
				b = b || blocks[c]
				maps.Copy(d, done[c])
			}
		}
		if b == blocks[n] && len(d) == len(done[n]) {
			return nil
		}
		blocks[n], done[n] = b, d
		return []*FuncNode{n}
	})

	// Pass 4: judge every `go` site in the scoped packages.
	for _, n := range prog.Nodes {
		if n.Test || !inPkg(n.Unit.Path, leakScopedPkgs...) {
			continue
		}
		launcher := locals[n]
		for _, site := range n.Calls {
			if !site.Go {
				continue
			}
			if len(site.Callees) == 0 {
				pass.Reportf(site.Call.Pos(), "cannot resolve the goroutine's target, so it cannot be proven joinable; launch a named function or add //lint:ignore leakcheck <reason>")
				continue
			}
			for _, c := range site.Callees {
				if leakJoinable(c, locals[c], launcher, waitedGroups, blocks, done) {
					continue
				}
				pass.Reportf(site.Call.Pos(), "goroutine %s is not provably joinable: it neither blocks on a done/ctx signal, completes a WaitGroup that Shutdown waits on, nor signals a channel this function receives; tie it to the drain path or add //lint:ignore leakcheck <reason>", c.Name)
				break // one finding per go statement
			}
		}
	}
}

// leakJoinable applies the three joinability rules to one launched
// callee.
func leakJoinable(c *FuncNode, cl *leakLocal, launcher *leakLocal, waitedGroups map[string]bool,
	blocks map[*FuncNode]bool, done map[*FuncNode]map[string]bool) bool {
	if blocks[c] {
		return true
	}
	for k := range done[c] {
		if waitedGroups[k] {
			return true
		}
	}
	if cl != nil && launcher != nil {
		for k := range cl.signals {
			if launcher.receives[k] {
				return true
			}
		}
	}
	return false
}

// scanLeakLocal walks one node's body (not nested literals — those are
// their own nodes) collecting lifecycle behavior.
func scanLeakLocal(prog *Program, n *FuncNode) *leakLocal {
	l := &leakLocal{
		done:     make(map[string]bool),
		waits:    make(map[string]bool),
		signals:  make(map[string]bool),
		receives: make(map[string]bool),
	}
	info := n.Unit.Info
	fset := prog.Fset

	paramSet := make(map[types.Object]bool)
	for _, p := range paramObjs(info, n) {
		if p != nil {
			paramSet[p] = true
		}
	}

	recvFrom := func(e ast.Expr) {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			if fn, _ := methodOf(info, call); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "context" && fn.Name() == "Done" {
				l.blocks = true // <-ctx.Done()
			}
			if path, name, ok := pkgFunc(info, call); ok && path == "time" && name == "After" {
				l.blocks = true // bounded wait
			}
			return
		}
		if obj := rootObj(info, e); obj != nil && paramSet[obj] {
			if _, isChan := obj.Type().Underlying().(*types.Chan); isChan {
				l.blocks = true // caller-controlled channel
			}
		}
		if k, ok := stateKeyOf(info, fset, e); ok {
			l.receives[k.Key] = true
		}
	}

	n.inspect(func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if k, ok := stateKeyOf(info, fset, x.Args[0]); ok {
					l.signals[k.Key] = true
				}
				return true
			}
			if fn, sel := methodOf(info, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isWaitGroup(recv.Type()) {
					if k, ok := stateKeyOf(info, fset, sel.X); ok {
						switch fn.Name() {
						case "Done":
							l.done[k.Key] = true
						case "Wait":
							l.waits[k.Key] = true
						}
					}
				}
				return true
			}
			if fn, _ := methodOf(info, x); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "context" && fn.Name() == "Err" {
				// for ctx.Err() == nil { ... } polling loops terminate on
				// cancellation.
				l.blocks = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				recvFrom(x.X)
			}
		case *ast.RangeStmt:
			if _, isChan := info.TypeOf(x.X).Underlying().(*types.Chan); isChan {
				recvFrom(x.X)
			}
		case *ast.SendStmt:
			if k, ok := stateKeyOf(info, fset, x.Chan); ok {
				l.signals[k.Key] = true
			}
		}
		return true
	})
	return l
}

func isWaitGroup(t types.Type) bool {
	name, pkg := namedOwner(t)
	return name == "WaitGroup" && pkg == "sync"
}
