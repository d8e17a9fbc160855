package analysis

import (
	"go/ast"
	"go/types"
)

// MetricsDisciplineAnalyzer enforces the observability layer's
// contracts. Metric descriptors must be registered in package-level
// var blocks or init functions — registering one mid-run means the
// catalog (and therefore the deterministic snapshot, which emits a
// zero row for every registered metric) differs depending on which
// code paths a particular run happened to execute. And metric or span
// timings must come from the simulation clock: feeding time.Now or
// time.Since into Observe/ObserveDuration, or handing trace.New the
// sim.WallClock adapter, records host scheduling noise into values
// that are promised to be byte-identical for a given seed.
//
// The wallclock analyzer already bans time.Now in non-test code; the
// timing rules here additionally cover _test.go files, where sleeping
// on the real clock is legitimate but timing a metric with it is not.
// The metrics package itself is exempt: its tests construct
// descriptors at runtime on purpose, to exercise the duplicate-name
// and bad-bounds panics.
var MetricsDisciplineAnalyzer = &Analyzer{
	Name: "metricsdiscipline",
	Doc:  "metric descriptors registered at runtime, or metric/span timings fed from the wall clock",
	Run:  runMetricsDiscipline,
}

const (
	metricsPkgSuffix = "internal/metrics"
	tracePkgSuffix   = "internal/trace"
)

var descConstructors = map[string]bool{
	"NewCounterDesc": true, "NewGaugeDesc": true, "NewHistogramDesc": true,
}

var observeMethods = map[string]bool{"Observe": true, "ObserveDuration": true}

func runMetricsDiscipline(pass *Pass) {
	for _, u := range pass.Prog.Units {
		if !inPkg(u.Path, metricsPkgSuffix) {
			for _, file := range u.Files {
				checkMetricsFile(pass, u.Info, file)
			}
		}
	}
}

func checkMetricsFile(pass *Pass, info *types.Info, file *ast.File) {
	// Runtime registration: a New*Desc call reachable only by
	// executing a function other than init.
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Name.Name == "init" && fd.Recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgFunc(info, call); ok &&
				inPkg(path, metricsPkgSuffix) && descConstructors[name] {
				pass.Reportf(call.Pos(), "metrics.%s called at runtime; register descriptors in a package-level var or init so the catalog is identical for every run", name)
			}
			return true
		})
	}

	// Wall-clock timings flowing into the observability layer.
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, _ := methodOf(info, call); fn != nil && observeMethods[fn.Name()] &&
			fn.Pkg() != nil && inPkg(fn.Pkg().Path(), metricsPkgSuffix) {
			reportWallTimedArgs(pass, info, call, fn.Name())
		}
		if path, name, ok := pkgFunc(info, call); ok &&
			inPkg(path, tracePkgSuffix) && name == "New" {
			for _, arg := range call.Args {
				if isSimWallClock(info.TypeOf(arg)) {
					pass.Reportf(arg.Pos(), "trace.New given sim.WallClock; spans must be timed on the virtual clock so durations stay seed-deterministic")
				}
			}
		}
		return true
	})
}

// reportWallTimedArgs flags time.Now / time.Since calls anywhere in
// the arguments of an Observe / ObserveDuration call.
func reportWallTimedArgs(pass *Pass, info *types.Info, call *ast.CallExpr, method string) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgFunc(info, inner); ok && path == "time" && (name == "Now" || name == "Since") {
				pass.Reportf(call.Pos(), "%s fed from time.%s reads the wall clock; derive metric timings from the sim clock so values stay seed-deterministic", method, name)
				return false
			}
			return true
		})
	}
}
