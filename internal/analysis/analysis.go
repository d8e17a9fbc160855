// Package analysis is the repo's determinism-and-correctness linter: a
// small, self-contained static-analysis framework plus eight analyzers
// that encode bug classes this codebase has actually shipped and then
// had to hunt down by hand. Every analyzer runs once over one
// whole-module Program: its units, its functions and their call graph.
//
// The fleet simulation promises byte-identical output for a given seed
// at any worker count. That promise has been broken twice:
//
//   - PR 2 ("parallel fleet simulation") fixed five separate
//     map-iteration nondeterminism bugs across dta, mi, engine,
//     workload, and experiment — each one a `for range` over a map
//     whose body appended to a slice or accumulated float cost state
//     in Go's randomized map order.
//   - PR 3 ("deterministic fault injection") introduced wrapped errors
//     and had to convert sentinel `==` comparisons to errors.Is when
//     fault wrapping broke classification in dta.
//
// Both classes are mechanically detectable, so this package detects
// them mechanically — the same move production systems make with
// `go vet`-style analyzers — along with their neighbours: wall-clock
// and global-RNG calls that bypass internal/sim (the root cause of
// nondeterministic timestamps), sloppy mutex discipline and lock-order
// deadlocks, observability-layer violations (runtime metric
// registration, wall-clock-timed metrics and spans; see
// metricsdiscipline.go), nondeterminism flowing across calls into
// deterministic output, and goroutines the serving path cannot join.
//
// The framework deliberately uses only the standard library
// (go/parser, go/ast, go/types, go/importer); there is no dependency
// on golang.org/x/tools. See cmd/lint for the command-line driver and
// testdata/ for the annotated fixture corpus.
//
// # Suppression
//
// Any diagnostic can be suppressed at its site with a directive
// comment on the same line or the line immediately above:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// cmd/lint -ignores prints the inventory of active suppressions so
// reviews can audit every escape hatch.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the diagnostic in the canonical
// "path:line:col: [check] message" form printed by cmd/lint.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// An Analyzer is one named check. Every check runs once over the
// whole module (see Pass): a check that looks at files iterates
// Prog.Units, so it also sees package-level initializers; a check that
// looks at functions iterates Prog.Nodes; the interprocedural checks
// (lockorder, detflow, leakcheck) also follow Prog's call graph.
type Analyzer struct {
	// Name is the check name used in diagnostics, //lint:ignore
	// directives, and the cmd/lint -checks filter.
	Name string
	// Doc is a one-line description shown by cmd/lint -help.
	Doc string
	// SkipTests drops this check's diagnostics in _test.go files. The
	// wallclock analyzer sets it: tests legitimately sleep to
	// coordinate real goroutines, and test wall-time never feeds
	// simulation output. Test-file functions still contribute
	// call-graph edges to every check.
	SkipTests bool
	// Run inspects the module and reports findings through the pass.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of the whole module.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
	skip  map[*token.File]bool // test files, when the analyzer skips them
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.skip[p.Prog.Fset.File(pos)] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Prog.Fset.Position(pos),
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order: the five checks
// that look at one function or file at a time, then the three that
// follow the call graph.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrderAnalyzer,
		WallClockAnalyzer,
		ErrCompareAnalyzer,
		LockDisciplineAnalyzer,
		MetricsDisciplineAnalyzer,
		LockOrderAnalyzer,
		DetFlowAnalyzer,
		LeakCheckAnalyzer,
	}
}

// ByName resolves a check name to its analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run builds the whole-module program over units once, applies the
// analyzers to it, filters the results through //lint:ignore
// directives, and returns the surviving diagnostics in (file, line,
// col, check) order. Malformed directives are reported as diagnostics
// of the pseudo-check "directive", which cannot be suppressed.
func Run(units []*Unit, analyzers []*Analyzer) []Diagnostic {
	var diags, found []Diagnostic
	var ignores []Ignore
	testFiles := make(map[*token.File]bool)
	for _, u := range units {
		igs, bad := collectIgnores(u.Fset, u.Files)
		diags = append(diags, bad...)
		ignores = append(ignores, igs...)
		for f := range u.TestFiles {
			testFiles[u.Fset.File(f.Pos())] = true
		}
	}
	if len(units) > 0 {
		prog := BuildProgram(units)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, diags: &found}
			if a.SkipTests {
				pass.skip = testFiles
			}
			a.Run(pass)
		}
	}
	diags = append(diags, filterIgnored(found, ignores)...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}
