package fleet

import (
	"fmt"
	"strings"

	"autoindex/internal/controlplane"
	"autoindex/internal/faults"
	"autoindex/internal/sim"
	"autoindex/internal/telemetry"
	"autoindex/internal/workload"
)

// ChaosConfig turns the operational simulation into a fault-injection
// run: engine DDL failures, control-plane crash/restart cycles, lossy
// telemetry and thinned query-store windows, all drawn from seeded
// per-scope streams so a chaos run is bit-identical for a given fleet
// seed at any worker count.
type ChaosConfig struct {
	Enabled bool
	// FaultRate is the per-opportunity probability for the engine,
	// telemetry and query-store fault points.
	FaultRate float64
	// CrashRate is the per-save probability for each control-plane crash
	// point (before- and after-save).
	CrashRate float64
	// MaxDrainHours bounds the post-run drain that lets in-flight records
	// settle before invariants are checked; 0 means a generous default
	// covering the longest validation window plus exhausted retries.
	MaxDrainHours int
}

// DefaultChaosConfig returns moderately hostile rates: most records
// succeed, but every fault point fires many times over a fleet-run.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Enabled: true, FaultRate: 0.05, CrashRate: 0.02}
}

// ChaosReport summarises what a chaos run injected and what state the
// fleet settled into. All fields are deterministic for a given seed.
type ChaosReport struct {
	// Faults counts fired injections by point (crash points included).
	Faults map[faults.Point]int64
	// Crashes counts control-plane crashes recovered, by point.
	Crashes map[faults.Point]int64
	// Restarts is the total number of control-plane rebuilds.
	Restarts int64
	// DroppedEvents is the hub's count of telemetry events lost.
	DroppedEvents int64
	// DroppedExecutions sums query-store executions lost across tenants.
	DroppedExecutions int64
	// DrainHours is how many post-run hours the drain consumed.
	DrainHours int
	// Violations is the invariant-checker output; empty means the fleet
	// degraded gracefully under the schedule.
	Violations []controlplane.Violation
}

// Format renders the report deterministically, fault points in registry
// order.
func (r *ChaosReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: %d restarts, %d events dropped, %d executions dropped, drained %dh\n",
		r.Restarts, r.DroppedEvents, r.DroppedExecutions, r.DrainHours)
	for _, line := range faults.FormatFired(r.Faults) {
		fmt.Fprintf(&b, "  fired %s\n", line)
	}
	if len(r.Violations) == 0 {
		b.WriteString("invariants: OK (0 violations)\n")
	} else {
		fmt.Fprintf(&b, "invariants: %d VIOLATIONS\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}

// chaosHarness wires fault injectors into every layer of a fleet run and
// rebuilds the control plane after an injected crash. All of its mutation
// happens in serial sections (tenant enrollment, control-plane steps,
// drain), so it needs no locking; the injectors it hands to parallel
// tenant code (query-store droppers) are internally synchronized and
// per-tenant.
type chaosHarness struct {
	cfg  ChaosConfig
	seed int64

	hub     *telemetry.Hub
	wrapped controlplane.Store
	crashIn *faults.Injector
	telemIn *faults.Injector

	managed   []*workload.Tenant
	settings  map[string]controlplane.Settings
	engineIns map[string]*faults.Injector
	qsIns     map[string]*faults.Injector
}

// newChaosHarness builds the harness around the control plane's backing
// store. The fleet seed keys every injector, with one scope per layer and
// per tenant, so adding a tenant or a fault point never perturbs the
// schedules of the others.
func newChaosHarness(cfg ChaosConfig, seed int64, mem controlplane.Store) *chaosHarness {
	ch := &chaosHarness{
		cfg:       cfg,
		seed:      seed,
		hub:       telemetry.NewHub(0),
		settings:  make(map[string]controlplane.Settings),
		engineIns: make(map[string]*faults.Injector),
		qsIns:     make(map[string]*faults.Injector),
	}
	ch.crashIn = faults.New(seed, "plane", map[faults.Point]float64{
		faults.PlaneCrashBeforeSave: cfg.CrashRate,
		faults.PlaneCrashAfterSave:  cfg.CrashRate,
	})
	ch.wrapped = controlplane.NewCrashStore(mem, ch.crashIn)
	ch.telemIn = faults.New(seed, "telemetry", map[faults.Point]float64{
		faults.TelemetryDropEvent: cfg.FaultRate,
	})
	in := ch.telemIn
	ch.hub.SetDropper(func(telemetry.Event) bool { return in.Should(faults.TelemetryDropEvent) })
	return ch
}

// enroll records a tenant for crash-restart re-Management and attaches
// its engine and query-store injectors. Called serially (run.enroll),
// before the tenant sees any chaos.
func (ch *chaosHarness) enroll(tn *workload.Tenant, s controlplane.Settings) {
	name := tn.DB.Name()
	ch.managed = append(ch.managed, tn)
	ch.settings[name] = s

	eng := faults.New(ch.seed, "engine/"+name, map[faults.Point]float64{
		faults.IndexBuildLogFull:     ch.cfg.FaultRate,
		faults.IndexBuildLockTimeout: ch.cfg.FaultRate,
		faults.IndexBuildAbort:       ch.cfg.FaultRate,
		faults.DropLockTimeout:       ch.cfg.FaultRate,
	})
	ch.engineIns[name] = eng
	tn.DB.SetFaultInjector(eng)

	qs := faults.New(ch.seed, "querystore/"+name, map[faults.Point]float64{
		faults.QueryStoreDropExecution: ch.cfg.FaultRate,
	})
	ch.qsIns[name] = qs
	tn.DB.QueryStore().SetDropper(func() bool { return qs.Should(faults.QueryStoreDropExecution) })
}

// rebuild is the crash runner's recovery step: a fresh control plane
// over the same (crash-wrapped) store with every enrolled tenant
// re-Managed — exactly the restart-time recovery path through the
// persistence layer.
func (ch *chaosHarness) rebuild(planeCfg controlplane.Config, clock sim.Clock) *controlplane.ControlPlane {
	np := controlplane.New(planeCfg, clock, ch.wrapped, ch.hub)
	for _, tn := range ch.managed {
		np.Manage(tn.DB, "server-0", ch.settings[tn.DB.Name()])
	}
	return np
}

// disable turns every injector off (they keep consuming draws, so a drain
// does not shift schedules relative to a hypothetical longer run).
func (ch *chaosHarness) disable() {
	ch.crashIn.Disable()
	ch.telemIn.Disable()
	for _, in := range ch.engineIns {
		in.Disable()
	}
	for _, in := range ch.qsIns {
		in.Disable()
	}
}

// report collects injector counters around the audit's findings. Callers
// must have every enrolled tenant materialized (rehydrated) at call time:
// the drop counters read live query stores.
func (ch *chaosHarness) report(crashes map[faults.Point]int64, drained int, violations []controlplane.Violation) *ChaosReport {
	rep := &ChaosReport{
		Faults:        make(map[faults.Point]int64),
		Crashes:       crashes,
		DroppedEvents: ch.hub.Counter("telemetry.dropped"),
		DrainHours:    drained,
		Violations:    violations,
	}
	faults.MergeFired(rep.Faults, ch.crashIn.Fired())
	faults.MergeFired(rep.Faults, ch.telemIn.Fired())
	for _, in := range ch.engineIns {
		faults.MergeFired(rep.Faults, in.Fired())
	}
	for _, in := range ch.qsIns {
		faults.MergeFired(rep.Faults, in.Fired())
	}
	for _, c := range rep.Crashes {
		rep.Restarts += c
	}
	for _, tn := range ch.managed {
		rep.DroppedExecutions += tn.DB.QueryStore().DroppedExecutions()
	}
	return rep
}
