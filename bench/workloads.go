package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/fleet"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/workload"
)

// Work per second of -seconds, sized on the seed code so the timed
// phases of a run add up to about -seconds there. Work is fixed by
// count, not by time: the same seed and size always do the same work, so
// every count repeats exactly and only time varies. Each workload puts
// most of its time into the phase it exists for.
const (
	seekStmtsPerSecond   = 13000 // serve_seek: serve ≈ 75 %
	seekRoundsPerSecond  = 30
	mixedStmtsPerSecond  = 350 // serve_mixed: serve ≈ 80 %
	mixedRoundsPerSecond = 10
	serveHoursPerSecond  = 7.2 // both: three virtual days of tuning the served tenant

	fleetDatabases       = 8
	fleetRoundsPerSecond = 3   // tune_fleet: sweep ≈ 10 %
	fleetDaysPerSecond   = 0.2 // tune_fleet: ops ≈ 70 %
	fleetStmtsPerSecond  = 150

	scaleTenantsPerSecond = 100 // scale_churn: ops ≈ 65 %
	scaleHours            = 16
	scaleStmtsPerHour     = 6
	scaleStmtsPerSecond   = 1000
	scaleRoundsPerSecond  = 2
	// scaleSubjects tenants are stamped from the archetypes RunScale uses,
	// hibernated and rehydrated; they are what scale_churn's serve and
	// sweep phases run on.
	scaleSubjects = 12
)

// workers is the size of every worker pool the end-to-end runs use.
func workers() int { return runtime.NumCPU() }

type buildServe func(p params, n int) (*serveInput, error)

// runServeE2E is a serve workload: one Standard-tier tenant serves the
// stream build generates, is then swept, then tuned.
func runServeE2E(name string, build buildServe, stmtsPerSecond, roundsPerSecond float64, p params) (*outcome, error) {
	o := &outcome{Workload: name}
	var in *serveInput
	setups, err := timeSetups(p, func() { in = nil }, func() (err error) {
		in, err = build(p, scaled(stmtsPerSecond, p))
		return err
	})
	if err != nil {
		return nil, err
	}
	o.addSpread("setup_s", setups)
	err = o.timed(
		func() error { return servePhase(o, in) },
		func() error { return sweepPhase(o, in.tenants, scaled(roundsPerSecond, p)) },
		func() error { return tunePhase(o, in.tenants[0], scaled(serveHoursPerSecond, p)) },
	)
	return o, err
}

// never is an interval no run reaches.
const never = time.Duration(math.MaxInt64)

func fleetSpec(p params) fleet.Spec {
	return fleet.Spec{
		Databases:   p.databases,
		MixedTiers:  true,
		UserIndexes: true,
		Seed:        fixedSeed,
		Scale:       p.dataScale,
		Workers:     workers(),
	}
}

// burn advances a tenant's statement generator by a seed-dependent
// number of draws. The tenant itself — schema, data, template weights —
// is the same for every seed (they set how much work a statement is, and
// a benchmark whose work moved with the seed could not hold a bound);
// what the seed varies is every literal the generator emits afterwards.
// Only the serve workloads' tenants are burned: see buildTunedFleet.
func burn(tn *workload.Tenant, seed int64) {
	k := 1 + int(uint64(seed)%1000)
	for i := 0; i < k; i++ {
		tn.Statement()
	}
}

// freezeTuning is an AfterBuild hook that stamps every database as just
// analysed, the way the fleet's own drain does: with the intervals set
// to never, the control plane then only takes its DMV snapshots.
func freezeTuning(ctx *fleet.OpsHookContext) {
	now := ctx.Fleet.Clock.Now()
	for _, ds := range ctx.Store.Databases() {
		ds.LastAnalysis, ds.LastDropScan = now, now
		_ = ctx.Store.SaveDatabase(ds) // the ops loop's store is a MemStore: cannot fail
	}
}

// buildTunedFleet is tune_fleet's set-up: the tenants of spec, one
// tuning-frozen virtual day to fill Query Store and the missing-index
// DMV, and one priming DTA pass per tenant so sampled statistics exist.
//
// It takes no seed. Which index a tenant gains or loses is chaotic in
// the statements it replays, and one index on a Premium tenant moves the
// fleet's statement cost and allocation by several percent — more than
// the bounds allow between runs. So the fleet workloads replay the same
// statements on every run; the serve workloads are where -seed varies
// the input.
func buildTunedFleet(spec fleet.Spec, timing *setupTiming) (*fleet.Fleet, error) {
	t := startTimer()
	f, err := fleet.Build(spec)
	timing.buildNs = t.ns()
	if err != nil {
		return nil, err
	}
	plane := controlplane.DefaultConfig()
	plane.AnalyzeEvery, plane.DropScanEvery = never, never
	if _, err := f.RunOps(spec, fleet.OpsConfig{
		Days:              1,
		StatementsPerHour: fleetStmtsPerTenantHour,
		Plane:             plane,
		Hooks:             fleet.OpsHooks{AfterBuild: freezeTuning},
	}); err != nil {
		return nil, err
	}
	for _, tn := range f.Tenants {
		t = startTimer()
		_, err := dtaPass(tn, false)
		timing.firstPassNs = append(timing.firstPassNs, t.ns())
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}

// setupTiming is what buildTunedFleet learned on the way: how long
// fleet.Build took and how long each tenant's first DTA pass took (the
// pass that builds the sampled statistics later passes reuse). It is
// filled through a pointer, not returned beside the fleet: the repo's
// detflow linter taints every result of a function that returns a
// wall-clock value, and a tainted fleet would taint the whole program.
type setupTiming struct {
	buildNs     int64
	firstPassNs []int64
}

func opsConfig(days int) fleet.OpsConfig {
	return fleet.OpsConfig{
		Days:                  days,
		StatementsPerHour:     fleetStmtsPerTenantHour,
		AutoImplementFraction: 1,
		FailoverProb:          fleet.DefaultOpsConfig().FailoverProb,
		Plane:                 controlplane.DefaultConfig(),
	}
}

// runTuneFleetE2E is tune_fleet: eight mixed-tier tenants are swept,
// live days of the whole loop through the entry point fleetsim uses,
// and then serve their own generators' statements as the loop left them.
func runTuneFleetE2E(p params) (*outcome, error) {
	o := &outcome{Workload: "tune_fleet"}
	var f *fleet.Fleet
	setups, err := timeSetups(p, func() { f = nil }, func() (err error) {
		f, err = buildTunedFleet(fleetSpec(p), &setupTiming{})
		return err
	})
	if err != nil {
		return nil, err
	}
	o.addSpread("setup_s", setups)
	err = o.timed(
		func() error { return sweepPhase(o, f.Tenants, scaled(fleetRoundsPerSecond, p)) },
		func() error {
			// Virtual hours are not alike — every sixth holds the tuning
			// sessions, some hold index builds — so a median over slices
			// of hours would sit on whichever kind of slice is in the
			// middle. The rate is over the whole phase.
			days := scaled(fleetDaysPerSecond, p)
			region := startTimer()
			res, err := f.RunOps(fleetSpec(p), opsConfig(days))
			wallNs := region.ns()
			if err != nil {
				return err
			}
			o.addOps(int64(len(f.Tenants)*days*24), wallNs, res.Stats, erroredRecords(res.Plane))
			o.Digest = digest(res.Report(), res.RevertReport())
			return nil
		},
		func() error {
			in, err := evenStream(f.Tenants, scaled(fleetStmtsPerSecond, p))
			if err != nil {
				return err
			}
			return servePhase(o, in)
		},
	)
	return o, err
}

// scaleDataScale is the data size of scale_churn's archetypes relative
// to the other workloads' tenants.
const scaleDataScale = 0.25

func scaleSpec(p params, tenants int) fleet.ScaleSpec {
	spec := fleet.DefaultScaleSpec(tenants, scaleHours)
	spec.Seed = fixedSeed
	spec.Archetypes = 3
	spec.Scale = scaleDataScale * p.dataScale
	spec.ActiveFraction = 0.08
	spec.StatementsPerHour = scaleStmtsPerHour
	spec.ResidentTenants = 16
	spec.Workers = workers()
	spec.Stream = io.Discard
	return spec
}

// archetypeProfiles are the archetypes RunScale builds for spec, by the
// rule RunScale builds them.
func archetypeProfiles(spec fleet.ScaleSpec) []workload.Profile {
	out := make([]workload.Profile, spec.Archetypes)
	for a := range out {
		tier := engine.TierStandard
		switch a % 4 {
		case 2:
			tier = engine.TierBasic
		case 3:
			tier = engine.TierPremium
		}
		out[a] = workload.Profile{
			Name:        fmt.Sprintf("arch%02d", a),
			Tier:        tier,
			Seed:        spec.Seed + int64(a)*104729,
			Scale:       spec.Scale,
			UserIndexes: spec.UserIndexes,
		}
	}
	return out
}

// hibernate parks a tenant and seals it into a snapshot, releasing its
// state: the calls RunScale makes when it evicts one.
func hibernate(tn *workload.Tenant) []byte {
	tn.DB.Park()
	var w snap.Writer
	tn.EncodeTo(&w)
	blob := w.Seal()
	tn.Release()
	return blob
}

// rehydrate restores a hibernated tenant in place.
func rehydrate(tn *workload.Tenant, blob []byte) error {
	r, err := snap.Open(blob)
	if err != nil {
		return err
	}
	if err := tn.DecodeFrom(r); err != nil {
		return err
	}
	return r.Done()
}

// stampSubjects is scale_churn's set-up: the first n tenants RunScale
// would stamp for spec, each after one replayed hour and one trip
// through hibernation, and the stream they will serve.
func stampSubjects(spec fleet.ScaleSpec, n, stmts int) (*serveInput, error) {
	profiles := archetypeProfiles(spec)
	archs := make([]*workload.Archetype, len(profiles))
	for a, p := range profiles {
		arch, err := workload.NewArchetype(p, sim.NewClock())
		if err != nil {
			return nil, fmt.Errorf("archetype %s: %w", p.Name, err)
		}
		archs[a] = arch
	}
	tenants := make([]*workload.Tenant, n)
	for i := range tenants {
		name := fmt.Sprintf("t%07d", i)
		tn, err := workload.NewTenantFromArchetype(archs[i%len(archs)], name, spec.Seed+int64(i)*7919, sim.NewClock())
		if err != nil {
			return nil, fmt.Errorf("stamping %s: %w", name, err)
		}
		if st := tn.Run(time.Hour, spec.StatementsPerHour); st.Errors > 0 {
			return nil, fmt.Errorf("%d of %d replayed statements failed on %s", st.Errors, st.Statements, name)
		}
		if err := rehydrate(tn, hibernate(tn)); err != nil {
			return nil, fmt.Errorf("rehydrating %s: %w", name, err)
		}
		tenants[i] = tn
	}
	return evenStream(tenants, stmts)
}

// runScaleChurnE2E is scale_churn: RunScale under a residency cap, then
// tenants that have been through hibernation serve and are swept.
func runScaleChurnE2E(p params) (*outcome, error) {
	o := &outcome{Workload: "scale_churn"}
	tenants := scaled(scaleTenantsPerSecond, p)
	var in *serveInput
	setups, err := timeSetups(p, func() { in = nil }, func() (err error) {
		in, err = stampSubjects(scaleSpec(p, tenants), scaleSubjects, scaled(scaleStmtsPerSecond, p))
		return err
	})
	if err != nil {
		return nil, err
	}
	o.addSpread("setup_s", setups)
	err = o.timed(
		func() error {
			region := startTimer()
			res, err := fleet.RunScale(scaleSpec(p, tenants))
			wallNs := region.ns()
			if err != nil {
				return err
			}
			// RunScale keeps its control plane to itself: a record that ended
			// in Error shows as an incident.
			o.addOps(res.TenantHours, wallNs, res.Stats, 0)
			o.Digest = digest(res.Report())
			o.count("tenants", int64(res.Tenants))
			o.count("replayed_statements", res.Statements)
			o.count("hibernations", res.Hibernations)
			o.count("rehydrations", res.Rehydrations)
			o.count("snapshot_bytes", res.SnapshotBytes)
			o.count("peak_resident", int64(res.PeakResident))
			return nil
		},
		func() error { return servePhase(o, in) },
		func() error { return sweepPhase(o, in.tenants, scaled(scaleRoundsPerSecond, p)) },
	)
	return o, err
}
