package analysis

import "go/ast"

// WallClockAnalyzer forbids reading the wall clock or the global
// math/rand source outside the sanctioned packages (internal/sim and
// the live serving path, see sanctionedPkgSuffixes). Every simulated
// component reads time
// through sim.Clock and randomness through seeded sim.RNG streams;
// that is the whole reason fleet runs are bit-identical for a given
// seed. A stray time.Now or rand.Intn silently reintroduces
// nondeterminism that only shows up as flaky fleet diffs much later.
//
// Constructing a local, seeded generator (rand.New(rand.NewSource(s)))
// is deterministic and allowed; only the package-level functions that
// draw from the process-global source are flagged. _test.go files are
// exempt: tests legitimately sleep to coordinate real goroutines, and
// test wall-time never feeds simulation output.
var WallClockAnalyzer = &Analyzer{
	Name:      "wallclock",
	Doc:       "wall-clock time or global math/rand outside sanctioned packages (use sim.Clock / sim.RNG)",
	SkipTests: true,
	Run:       runWallClock,
}

// simPkgSuffix exempts the simulation substrate itself, which is the
// one place allowed to touch the real clock (sim.WallClock adapts it).
// It is also referenced by the metricsdiscipline check.
const simPkgSuffix = "internal/sim"

// sanctionedPkgSuffixes lists the packages allowed to read the wall
// clock. Beyond the simulation substrate, the SQL serving path is
// exempt: real network connections need real read deadlines, and
// admission backpressure sleeps off real wall time. Nothing in either
// package feeds simulation output — live capture enters Query Store
// through the engine, which stamps it with the tenant's virtual clock.
var sanctionedPkgSuffixes = []string{
	simPkgSuffix,
	"internal/wire",
	"internal/serve",
}

var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// seeded constructors on math/rand and math/rand/v2 that do not touch
// the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runWallClock(pass *Pass) {
	for _, u := range pass.Prog.Units {
		if inPkg(u.Path, sanctionedPkgSuffixes...) {
			continue
		}
		for _, file := range u.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				path, name, ok := pkgFunc(u.Info, call)
				if !ok {
					return true
				}
				switch {
				case path == "time" && wallTimeFuncs[name]:
					pass.Reportf(call.Pos(), "time.%s reads the wall clock; use sim.Clock so runs stay seed-deterministic", name)
				case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name]:
					pass.Reportf(call.Pos(), "global rand.%s draws from the process-wide source; use a seeded sim.RNG stream", name)
				}
				return true
			})
		}
	}
}
