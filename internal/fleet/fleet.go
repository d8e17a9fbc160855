// Package fleet builds and drives multi-tenant database fleets: the
// substrate for reproducing Fig. 6 (recommender comparison at scale on
// B-instances) and the §8.1 operational statistics (long-horizon
// auto-indexing with validation and drops across many databases).
//
// The harness shards tenants across a configurable worker pool
// (Spec.Workers; default one worker per CPU). Every tenant owns an
// isolated sim.VirtualClock and draws randomness only from per-tenant
// streams derived as seed ^ hash(tenantID) (sim.TenantRNG), so a fleet
// run is bit-identical at any worker count: tenant-hours execute in
// parallel between barriers, and everything cross-tenant — control-plane
// micro-services, result merging, fleet-growth decisions — runs serially
// at the barrier in tenant order. See the sim package's concurrency and
// determinism contract.
package fleet

import (
	"fmt"
	"math"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/experiment"
	"autoindex/internal/metrics"
	"autoindex/internal/querystore"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// Spec configures a fleet.
type Spec struct {
	Databases int
	Tier      engine.Tier
	// MixedTiers overrides Tier with a Basic/Standard/Premium mix.
	MixedTiers bool
	Seed       int64
	// Scale multiplies tenant data sizes.
	Scale float64
	// UserIndexes gives tenants pre-existing human tuning.
	UserIndexes bool
	// Workers is the size of the tenant worker pool; <= 0 means one worker
	// per available CPU. Results do not depend on the value (only
	// wall-clock time does).
	Workers int
}

// Fleet is a set of tenants. The control plane observes the fleet through
// the region Clock; each tenant's database runs on its own isolated
// virtual clock, advanced in lockstep with the region clock at hour
// barriers so cross-tenant timestamps stay comparable.
type Fleet struct {
	// Clock is the region clock: the control plane's time source. Tenant
	// databases each own a separate clock (see tenant isolation in the
	// package comment).
	Clock *sim.VirtualClock
	// RNG is the fleet-level stream for serial, cross-tenant decisions
	// (auto-implement assignment, fleet growth). Per-tenant draws never
	// come from it.
	RNG     *sim.RNG
	Tenants []*workload.Tenant
	// Metrics is the run's registry: every tenant engine, the control
	// plane, and the fleet harness itself feed it. Its non-volatile
	// snapshot is byte-identical at any Workers count.
	Metrics *metrics.Registry

	spec   Spec
	clocks []*sim.VirtualClock // clocks[i] belongs to Tenants[i]
}

// Build creates the fleet, constructing tenants in parallel across the
// worker pool. Tenant i's schema, data and templates derive only from its
// own seed, so parallel construction is deterministic.
func Build(spec Spec) (*Fleet, error) {
	f := &Fleet{Clock: sim.NewClock(), RNG: sim.NewRNG(spec.Seed), Metrics: metrics.NewRegistry(), spec: spec}
	profiles := make([]workload.Profile, spec.Databases)
	for i := range profiles {
		tier := spec.Tier
		if spec.MixedTiers {
			switch i % 4 {
			case 0, 1:
				tier = engine.TierStandard
			case 2:
				tier = engine.TierBasic
			default:
				tier = engine.TierPremium
			}
		}
		profiles[i] = workload.Profile{
			Name:        fmt.Sprintf("db%03d", i),
			Tier:        tier,
			Seed:        spec.Seed + int64(i)*7919,
			Scale:       spec.Scale,
			UserIndexes: spec.UserIndexes,
		}
	}
	f.Tenants = make([]*workload.Tenant, len(profiles))
	f.clocks = make([]*sim.VirtualClock, len(profiles))
	errs := make([]error, len(profiles))
	forEach(spec.Workers, len(profiles), func(i int) {
		clock := sim.NewClock()
		tn, err := workload.NewTenant(profiles[i], clock)
		if err != nil {
			errs[i] = err
			return
		}
		f.Tenants[i] = tn
		f.clocks[i] = clock
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: tenant %d: %w", i, err)
		}
	}
	// Attach metrics after construction so initial population replay is
	// uncounted for every tenant alike (growth tenants get the same
	// treatment in addTenant).
	for _, tn := range f.Tenants {
		tn.DB.SetMetrics(f.Metrics)
	}
	f.Metrics.Gauge(descTenants).Set(int64(len(f.Tenants)))
	return f, nil
}

// addTenant registers a tenant built outside Build (fleet growth).
func (f *Fleet) addTenant(tn *workload.Tenant, clock *sim.VirtualClock) {
	tn.DB.SetMetrics(f.Metrics)
	f.Tenants = append(f.Tenants, tn)
	f.clocks = append(f.clocks, clock)
	f.Metrics.Counter(descTenantsGrown).Inc()
	f.Metrics.Gauge(descTenants).Set(int64(len(f.Tenants)))
}

// AdvanceLive moves the whole fleet's virtual time forward by d and
// re-aligns every tenant clock. The serving path uses it as the live
// loop's tick: client statements execute against tenant databases in
// real time, and each tick advances the virtual clocks the tuning
// pipeline (analysis cadence, validation windows) runs on. Call it only
// from the single live-loop goroutine — it is a barrier, like the hour
// loop's call sites of alignClocks.
func (f *Fleet) AdvanceLive(d time.Duration) {
	f.Clock.Advance(d)
	alignClocks(f.Clock, f.clocks)
}

// tenantStream derives a tenant's named RNG stream from the fleet seed:
// sim.TenantRNG gives the per-tenant root (seed ^ hash(tenantID)), Child
// isolates the purpose so new consumers don't perturb existing ones.
func tenantStream(seed int64, tenant, purpose string) *sim.RNG {
	return sim.TenantRNG(seed, tenant).Child(purpose)
}

// RunFig6 executes the §7.3 experiment across the fleet, one tenant per
// worker slot. Each tenant's experiment runs on its own B-instances,
// clock and RNG stream; the summary merges per-tenant results in tenant
// order.
func (f *Fleet) RunFig6(tierLabel string, cfg experiment.Fig6Config) experiment.Fig6Summary {
	results := make([]experiment.DatabaseResult, len(f.Tenants))
	forEachObserved(f.Metrics, f.spec.Workers, len(f.Tenants), func(i int) {
		tn := f.Tenants[i]
		results[i] = experiment.RunFig6ForTenant(tn, cfg, tenantStream(f.spec.Seed, tn.DB.Name(), "fig6"))
	})
	alignClocks(f.Clock, f.clocks)
	return experiment.Summarize(tierLabel, results)
}

// OpsConfig drives the §8.1 operational simulation.
type OpsConfig struct {
	Days int
	// StatementsPerHour per tenant.
	StatementsPerHour int
	// AutoImplementFraction of databases have auto-implementation on
	// (about a quarter in the paper).
	AutoImplementFraction float64
	// NewTenantEvery adds a fresh database on this cadence (the paper's
	// "increasing stream of new databases"); 0 disables.
	NewTenantEvery time.Duration
	// FailoverProb is a per-database per-day failover probability,
	// exercising the MI snapshot reset tolerance.
	FailoverProb float64
	Plane        controlplane.Config
	// Chaos, when enabled, injects seeded faults into every layer and
	// audits invariants after a post-run drain.
	Chaos ChaosConfig
	// Hooks are the scenario-generator intervention points; see OpsHooks.
	Hooks OpsHooks
	// AuditInvariants runs the chaos-style post-run invariant audit
	// (baseline capture, drain, CheckInvariants) even without chaos;
	// results land in OpsResult.Violations. Chaos mode always audits.
	AuditInvariants bool
}

// DefaultOpsConfig returns a simulation-scale configuration.
func DefaultOpsConfig() OpsConfig {
	return OpsConfig{
		Days:                  10,
		StatementsPerHour:     25,
		AutoImplementFraction: 0.25,
		FailoverProb:          0.02,
		Plane:                 controlplane.DefaultConfig(),
	}
}

// OpsResult is the §8.1-style outcome.
type OpsResult struct {
	Stats controlplane.OperationalStats
	// QueriesTwiceFaster counts queries whose CPU or logical reads
	// improved by more than 2x end-to-start.
	QueriesTwiceFaster int
	// DatabasesHalvedCPU counts databases whose aggregate workload CPU
	// fell by more than 50%.
	DatabasesHalvedCPU int
	// SteadyStateDatabases counts databases with no Active recommendations
	// at the end.
	SteadyStateDatabases int
	Plane                *controlplane.ControlPlane
	// Chaos is the fault-injection report; nil unless chaos was enabled.
	Chaos *ChaosReport
	// Audited reports whether a post-run invariant audit ran (chaos mode
	// or OpsConfig.AuditInvariants); Violations and DrainHours mirror the
	// chaos report when chaos was on, so scenario verdicts read one place.
	Audited    bool
	Violations []controlplane.Violation
	DrainHours int
}

// RunOps runs the long-horizon operational simulation. Each virtual hour,
// tenant workloads replay in parallel across the worker pool; the
// control-plane micro-services then step serially at the hour barrier, as
// do fleet-growth and measurement bookkeeping, so the outcome is
// bit-identical at any worker count. The loop is the one RunScale runs
// (loop.go): the fleet's tenants enter it as slots that are resident and
// awake every hour, so nothing is ever stamped, hibernated or swept.
func (f *Fleet) RunOps(spec Spec, cfg OpsConfig) (*OpsResult, error) {
	if cfg.Plane.Metrics == nil {
		cfg.Plane.Metrics = f.Metrics
	}
	r := &run{
		seed:          f.spec.Seed,
		workers:       f.spec.Workers,
		hours:         cfg.Days * 24,
		fraction:      1,
		statements:    cfg.StatementsPerHour,
		statementsFor: cfg.Hooks.StatementsFor,
		failoverProb:  cfg.FailoverProb,
		region:        f.Clock,
		reg:           f.Metrics,
		planeCfg:      cfg.Plane,
	}
	r.boot(cfg.Chaos, spec.Seed, cfg.AuditInvariants)
	autoRNG := f.RNG.Child("ops/auto")
	// admit enrolls a built tenant as a slot that stays resident and awake
	// for the whole run and any drain after it: its final hour never comes.
	admit := func(tn *workload.Tenant, clock *sim.VirtualClock) {
		st := &slot{name: tn.DB.Name(), auto: autoRNG.Float64() < cfg.AutoImplementFraction,
			phase: phaseResident, tn: tn, clock: clock, finalHour: math.MaxInt}
		r.slots = append(r.slots, st)
		r.enroll(st)
	}
	for i, tn := range f.Tenants {
		admit(tn, f.clocks[i])
	}
	hook := func(fn func(*OpsHookContext), hour int) {
		if fn != nil {
			fn(&OpsHookContext{Fleet: f, Hour: hour, Plane: r.runner.Plane, Store: r.mem})
		}
	}
	hook(cfg.Hooks.AfterBuild, -1)

	// First/last-window per-query costs for the >2x and >50% statistics.
	startCosts := make(map[string]map[uint64]float64)
	startTotal := make(map[string]float64)
	newTenantRNG := f.RNG.Child("ops/new")
	nextNew := cfg.NewTenantEvery
	start := f.Clock.Now()
	const warmupHours = 24
	r.before = func(h int) { hook(cfg.Hooks.BeforeHour, h) }
	r.barrier = func(h int) error {
		if h == warmupHours {
			for _, tn := range f.Tenants {
				per, total := windowCosts(tn, start, f.Clock.Now())
				startCosts[tn.DB.Name()] = per
				startTotal[tn.DB.Name()] = total
			}
		}
		if cfg.NewTenantEvery > 0 && f.Clock.Now().Sub(start) >= nextNew {
			nextNew += cfg.NewTenantEvery
			idx := len(f.Tenants)
			clock := sim.NewVirtualClock(f.Clock.Now())
			tn, err := workload.NewTenant(workload.Profile{
				Name:        fmt.Sprintf("db%03d", idx),
				Tier:        engine.TierStandard,
				Seed:        spec.Seed + int64(idx)*7919 + newTenantRNG.Int63n(1<<30),
				Scale:       spec.Scale,
				UserIndexes: spec.UserIndexes,
			}, clock)
			if err != nil {
				return fmt.Errorf("fleet: tenant %d: %w", idx, err)
			}
			admit(tn, clock)
			f.addTenant(tn, clock)
		}
		hook(cfg.Hooks.AfterHour, h)
		return nil
	}
	if err := r.play(); err != nil {
		return nil, err
	}
	res := &OpsResult{
		Stats:      r.runner.Plane.OpStats(),
		Plane:      r.runner.Plane,
		Chaos:      r.chaos,
		Audited:    r.baselines != nil,
		Violations: r.violations,
		DrainHours: r.drainHours,
	}
	finishOps(f, res, startCosts, startTotal)
	return res, nil
}

// finishOps computes the end-of-run §8.1 statistics from the last day's
// query-store windows.
func finishOps(f *Fleet, res *OpsResult, startCosts map[string]map[uint64]float64, startTotal map[string]float64) {
	lastFrom := f.Clock.Now().Add(-24 * time.Hour)
	for _, tn := range f.Tenants {
		basePer, baseTotal := startCosts[tn.DB.Name()], startTotal[tn.DB.Name()]
		if basePer == nil {
			continue
		}
		endPer, endTotal := windowCosts(tn, lastFrom, f.Clock.Now())
		for q, b := range basePer {
			if e, ok := endPer[q]; ok && e > 0 && b/e > 2 {
				res.QueriesTwiceFaster++
			}
		}
		if baseTotal > 0 && endTotal > 0 && endTotal < baseTotal*0.5 {
			res.DatabasesHalvedCPU++
		}
		if len(res.Plane.ListRecommendations(tn.DB.Name())) == 0 {
			res.SteadyStateDatabases++
		}
	}
}

// windowCosts returns per-query mean CPU and the workload mean CPU per
// statement over a window.
func windowCosts(tn *workload.Tenant, from, to time.Time) (map[uint64]float64, float64) {
	per := make(map[uint64]float64)
	var total, n float64
	qs := tn.DB.QueryStore()
	for _, h := range qs.QueryHashes() {
		if s, ok := qs.QueryWindowSample(h, querystore.MetricCPU, from, to); ok && s.N >= 2 {
			per[h] = s.Mean
			total += s.Mean * float64(s.N)
			n += float64(s.N)
		}
	}
	if n == 0 {
		return per, 0
	}
	return per, total / n
}
