// Command fleetsim regenerates the paper's evaluation tables and figures
// against simulated fleets:
//
//	fleetsim -experiment fig6 -tier premium -databases 20   // Fig 6(a)
//	fleetsim -experiment fig6 -tier standard -databases 20  // Fig 6(b)
//	fleetsim -experiment opstats -databases 12 -days 10     // §8.1 operational stats
//	fleetsim -experiment reverts -databases 12 -days 10     // §8.1 revert analysis
//	fleetsim -experiment scale -tenants 100000 -hours 24    // 100k-tenant scale mode
//	fleetsim -experiment scenarios -scenario all            // adversarial scenario pack
//
// Scenario mode runs the internal/scenario adversarial generators
// (workload drift, mid-run schema migration, flash-crowd bursts, noisy
// neighbors) and emits one invariant verdict per scenario; -verdicts-out
// writes the verdicts as stable JSON (the contract cmd/benchdiff diffs),
// -seeds N sweeps N consecutive base seeds for nightly soak runs, and
// the exit status is 1 when any verdict fails.
//
// Scale mode stamps tenants copy-on-write from shared archetypes,
// hibernates idle tenants past the -resident-tenants cap, and streams one
// line per tenant as it completes; see ARCHITECTURE.md "Fleet at scale".
//
// Tenants are sharded across a worker pool (-workers, default one per
// CPU); results are bit-identical at any worker count for the same seed,
// so scale the pool freely. Per-phase wall-clock timing goes to stderr —
// stdout carries only the deterministic experiment output, and can be
// diffed across runs. -cpuprofile writes a pprof profile for hot-path
// work.
//
// Absolute numbers differ from the paper (the substrate is a simulator,
// not Azure), but the shape — who wins where, the revert rate band, the
// drop:create recommendation ratio — should hold. See EXPERIMENTS.md.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"autoindex/internal/engine"
	"autoindex/internal/experiment"
	"autoindex/internal/fleet"
	"autoindex/internal/scenario"
)

func main() {
	var (
		exp        = flag.String("experiment", "fig6", "fig6 | opstats | reverts | scale | scenarios")
		scenName   = flag.String("scenario", "all", "scenarios mode: one scenario name, or all")
		seedSweep  = flag.Int("seeds", 1, "scenarios mode: number of consecutive base seeds to sweep")
		verdictOut = flag.String("verdicts-out", "", "scenarios mode: write verdict JSON to this file (stable bytes for a given seed at any -workers)")
		tierStr    = flag.String("tier", "premium", "fig6 tier: premium | standard")
		databases  = flag.Int("databases", 12, "fleet size (fig6/opstats/reverts)")
		days       = flag.Int("days", 10, "virtual days (opstats/reverts)")
		tenants    = flag.Int("tenants", 100_000, "scale-mode fleet size")
		hours      = flag.Int("hours", 24, "scale-mode virtual hours")
		archetypes = flag.Int("archetypes", 4, "scale-mode tenant archetypes")
		residents  = flag.Int("resident-tenants", 4096, "scale-mode resident-set cap (<=0: unlimited, hibernation off)")
		activeFrac = flag.Float64("active-fraction", 0.002, "scale-mode per-tenant per-hour activity probability")
		dataScale  = flag.Float64("scale", 1.0, "scale-mode archetype data-size multiplier (smaller = faster, lighter tenants)")
		seed       = flag.Int64("seed", 20170301, "fleet seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "tenant worker pool size (results are identical at any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		chaosOn    = flag.Bool("chaos", false, "inject seeded faults (opstats/reverts/scale/scenarios) and audit invariants; any violation exits 1")
		faultRate  = flag.Float64("chaos-fault-rate", 0.05, "per-opportunity probability of engine/telemetry/querystore faults")
		crashRate  = flag.Float64("chaos-crash-rate", 0.02, "per-save probability of each control-plane crash point")
		metricsOut = flag.String("metrics-out", "", "write the run's deterministic metrics snapshot (JSON) to this file; byte-identical for a given seed at any -workers")
	)
	flag.Parse()

	chaos := fleet.ChaosConfig{Enabled: *chaosOn, FaultRate: *faultRate, CrashRate: *crashRate}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	switch strings.ToLower(*exp) {
	case "fig6":
		if chaos.Enabled {
			fmt.Fprintln(os.Stderr, "fleetsim: -chaos applies to opstats/reverts/scale/scenarios, not fig6")
			os.Exit(2)
		}
		runFig6(*tierStr, *databases, *seed, *workers, *metricsOut)
	case "opstats":
		runOps(*databases, *days, *seed, *workers, false, chaos, *metricsOut)
	case "reverts":
		runOps(*databases, *days, *seed, *workers, true, chaos, *metricsOut)
	case "scale":
		runScale(*tenants, *hours, *archetypes, *residents, *activeFrac, *dataScale, *seed, *workers, chaos, *metricsOut)
	case "scenarios":
		runScenarios(*scenName, *seed, *seedSweep, *workers, chaos.Enabled, *verdictOut)
	default:
		fmt.Fprintf(os.Stderr, "fleetsim: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

// phaseTimer reports per-phase wall-clock durations on stderr, keeping
// stdout byte-identical across worker counts.
type phaseTimer struct {
	label string
	start time.Time
}

func startPhase(label string) *phaseTimer {
	//lint:ignore wallclock phase timing is operator diagnostics on stderr; simulated state never reads it
	return &phaseTimer{label: label, start: time.Now()}
}

func (p *phaseTimer) done() {
	//lint:ignore wallclock,detflow phase timing is operator diagnostics on stderr; simulated state never reads it and stderr is not diffed
	fmt.Fprintf(os.Stderr, "fleetsim: phase %-8s %8.2fs\n", p.label, time.Since(p.start).Seconds())
}

// writeMetrics writes the fleet's non-volatile metrics snapshot. The
// bytes depend only on the seed and the experiment — never on -workers
// or wall time — so the file can be diffed across runs like stdout.
func writeMetrics(fl *fleet.Fleet, path string) {
	if path == "" {
		return
	}
	b, err := fl.Metrics.MarshalDeterministic()
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim: metrics-out:", err)
		os.Exit(1)
	}
}

func runFig6(tierStr string, databases int, seed int64, workers int, metricsOut string) {
	var tier engine.Tier
	switch strings.ToLower(tierStr) {
	case "premium":
		tier = engine.TierPremium
	case "standard":
		tier = engine.TierStandard
	default:
		fmt.Fprintf(os.Stderr, "fleetsim: fig6 tier must be premium or standard\n")
		os.Exit(2)
	}
	fmt.Printf("Fig 6 experiment: %d %s-tier databases, B-instance phases, N=20 k=5 (seed %d)\n\n",
		databases, tier, seed)
	build := startPhase("build")
	fl, err := fleet.Build(fleet.Spec{Databases: databases, Tier: tier, Seed: seed, UserIndexes: true, Workers: workers})
	build.done()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	run := startPhase("run")
	sum := fl.RunFig6(tier.String(), experiment.DefaultFig6Config())
	run.done()
	writeMetrics(fl, metricsOut)
	fmt.Println(sum.String())
	fmt.Println("paper reference — premium: DTA 42% / MI 13% / User 15% / Comparable ~42%;")
	fmt.Println("                  standard: DTA 27% / MI 6% / User 10% / Comparable ~45%;")
	fmt.Println("                  avg improvement: DTA ~82%, MI ~72%, User ~35% (§7.3)")
}

// runScale drives the 100k+-tenant scale mode. Per-tenant completion
// lines stream to stdout as tenants finish, followed by the deterministic
// summary; residency counters (which measure the hibernation machinery
// and depend on -resident-tenants and the host) go to stderr with the
// phase timers. stdout is byte-identical at any -workers count and any
// -resident-tenants cap for the same seed and flags.
func runScale(tenants, hours, archetypes, residents int, activeFrac, dataScale float64, seed int64, workers int, chaos fleet.ChaosConfig, metricsOut string) {
	fmt.Printf("fleet scale mode: %d tenants, %d archetypes, %d virtual hours (seed %d)\n\n",
		tenants, archetypes, hours, seed)
	spec := fleet.DefaultScaleSpec(tenants, hours)
	spec.Archetypes = archetypes
	spec.ResidentTenants = residents
	spec.ActiveFraction = activeFrac
	spec.Scale = dataScale
	spec.Seed = seed
	spec.Workers = workers
	spec.Chaos = chaos
	out := bufio.NewWriterSize(os.Stdout, 1<<16)
	spec.Stream = out
	run := startPhase("run")
	res, err := fleet.RunScale(spec)
	run.done()
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, res.Report())
	if res.Chaos != nil {
		fmt.Fprintln(out)
		fmt.Fprint(out, res.Chaos.Format())
	}
	out.Flush()
	fmt.Fprint(os.Stderr, res.ResidencyReport())
	if metricsOut != "" {
		b, err := res.Metrics.MarshalDeterministic()
		if err == nil {
			err = os.WriteFile(metricsOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: metrics-out:", err)
			os.Exit(1)
		}
	}
	// An invariant violation is a failed run, not a footnote: the chaos
	// audit must gate the exit status.
	if res.Chaos != nil && len(res.Chaos.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d invariant violations\n", len(res.Chaos.Violations))
		os.Exit(1)
	}
}

// runScenarios drives the adversarial scenario pack. Output is
// deterministic for a given base seed at any -workers; a failing
// verdict (or a fleet error) exits non-zero so CI can gate on it.
func runScenarios(which string, seed int64, sweep, workers int, chaos bool, verdictsOut string) {
	var scens []scenario.Scenario
	if strings.EqualFold(which, "all") {
		scens = scenario.All()
	} else {
		s, ok := scenario.Get(which)
		if !ok {
			fmt.Fprintf(os.Stderr, "fleetsim: unknown scenario %q (have %s, or all)\n",
				which, strings.Join(scenario.Names(), ", "))
			os.Exit(2)
		}
		scens = []scenario.Scenario{s}
	}
	if sweep < 1 {
		sweep = 1
	}
	fmt.Printf("adversarial scenario pack: %d scenario(s), %d base seed(s) from %d, chaos %v\n\n",
		len(scens), sweep, seed, chaos)

	var verdicts []scenario.Verdict
	failed := 0
	for i := 0; i < sweep; i++ {
		base := seed + int64(i)
		for _, s := range scens {
			ph := startPhase(s.Name())
			r, err := s.Run(scenario.Options{Seed: base, Workers: workers, Chaos: chaos})
			ph.done()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleetsim: scenario %s (seed %d): %v\n", s.Name(), base, err)
				os.Exit(1)
			}
			verdicts = append(verdicts, r.Verdict)
			if !r.Verdict.Pass {
				failed++
			}
			if sweep == 1 {
				fmt.Println(r.Report)
			} else {
				// Sweeps keep one line per run so a 200-seed soak stays
				// readable; the full evidence lands in -verdicts-out.
				status := "PASS"
				if !r.Verdict.Pass {
					status = "FAIL"
				}
				fmt.Printf("seed %-12d %-18s %s\n", base, s.Name(), status)
			}
		}
	}
	if verdictsOut != "" {
		b, err := scenario.MarshalVerdicts(verdicts)
		if err == nil {
			err = os.WriteFile(verdictsOut, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetsim: verdicts-out:", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Printf("\nFAIL: %d of %d scenario runs failed their invariant verdict\n", failed, len(verdicts))
		os.Exit(1)
	}
	fmt.Printf("\nok: all %d scenario runs passed their invariant verdicts\n", len(verdicts))
}

func runOps(databases, days int, seed int64, workers int, revertFocus bool, chaos fleet.ChaosConfig, metricsOut string) {
	fmt.Printf("§8.1 operational simulation: %d mixed-tier databases, %d virtual days (seed %d)\n\n",
		databases, days, seed)
	if chaos.Enabled {
		fmt.Printf("chaos mode: fault rate %.3f, crash rate %.3f\n\n", chaos.FaultRate, chaos.CrashRate)
	}
	build := startPhase("build")
	fl, err := fleet.Build(fleet.Spec{Databases: databases, MixedTiers: true, Seed: seed, UserIndexes: true, Workers: workers})
	build.done()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	cfg := fleet.DefaultOpsConfig()
	cfg.Days = days
	cfg.NewTenantEvery = 72 * time.Hour
	cfg.Chaos = chaos
	if revertFocus {
		// Everyone auto-implements so the revert statistics have volume.
		cfg.AutoImplementFraction = 1.0
	}
	run := startPhase("run")
	res, err := fl.RunOps(fleet.Spec{Seed: seed, UserIndexes: true}, cfg)
	run.done()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetsim:", err)
		os.Exit(1)
	}
	writeMetrics(fl, metricsOut)
	if revertFocus {
		fmt.Print(res.RevertReport())
	} else {
		fmt.Print(res.Report())
	}
	if res.Chaos != nil {
		fmt.Println()
		fmt.Print(res.Chaos.Format())
	}
	// An invariant violation is a failed run, not a footnote: the audit
	// (chaos mode always runs it) must gate the exit status.
	if res.Audited && len(res.Violations) > 0 {
		fmt.Fprintf(os.Stderr, "fleetsim: %d invariant violations\n", len(res.Violations))
		os.Exit(1)
	}
}
