package fleet

import (
	"fmt"
	"io"
	"strings"

	"autoindex/internal/controlplane"
	"autoindex/internal/engine"
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

// Scale mode: run 100k–1M tenants on one machine.
//
// Three mechanisms make a fleet that large fit, none of which may disturb
// the determinism contract (byte-identical output at any -workers, with or
// without -chaos, under any hibernation pressure):
//
//   - Archetypes. Tenants are stamped from a handful of templates; schema
//     definitions, base rows and histograms are physically shared
//     copy-on-write (engine.SharedCatalog), so per-tenant cost is the
//     tenant's own tree nodes and deltas, not its data.
//
//   - Hibernation. An LRU cap (-resident-tenants) bounds how many tenants
//     stay fully materialized between barriers; the rest serialize to a
//     compact snapshot (hibernate.go) and rebuild in place on their next
//     active hour. Because which tenants get *stepped* each hour is a pure
//     function of the activity model and the persisted recommendation
//     records — never of residency — a run under heavy hibernation churn
//     produces the same bytes as one that never hibernates.
//
//   - Streaming reports. A tenant that has passed its last active hour and
//     holds no live recommendation emits its result line immediately and
//     is freed, so a long run's memory tracks the resident set, not the
//     completed population.

// ScaleSpec configures a scale-mode run.
type ScaleSpec struct {
	// Tenants is the nominal fleet size. Tenants the activity model never
	// wakes are never constructed and cost ~100 bytes each.
	Tenants int
	// Hours is the virtual run length.
	Hours int
	// Archetypes is the number of distinct tenant templates.
	Archetypes int
	Seed       int64
	// Scale multiplies archetype data sizes (1.0 = test-friendly default).
	Scale float64
	// ActiveFraction is the per-tenant per-hour probability of replaying
	// workload, decided by a pure hash of (seed, tenant, hour).
	ActiveFraction float64
	// StatementsPerHour per active tenant.
	StatementsPerHour int
	// ResidentTenants caps how many tenants stay materialized across a
	// barrier; <= 0 means unlimited (hibernation never triggers).
	ResidentTenants int
	// AutoImplementFraction of tenants have auto-implementation on.
	AutoImplementFraction float64
	// UserIndexes stamps the archetypes' "user tuned" indexes onto tenants.
	UserIndexes bool
	// Workers sizes the tenant worker pool; <= 0 means one per CPU.
	// Results do not depend on the value.
	Workers int
	Plane   controlplane.Config
	Chaos   ChaosConfig
	// Stream receives one line per completed tenant, emitted at the hour
	// barrier where the tenant finishes; nil discards them.
	Stream io.Writer
}

// DefaultScaleSpec returns a scale-mode configuration.
func DefaultScaleSpec(tenants, hours int) ScaleSpec {
	return ScaleSpec{
		Tenants:               tenants,
		Hours:                 hours,
		Archetypes:            4,
		Seed:                  20170301,
		Scale:                 1.0,
		ActiveFraction:        0.05,
		StatementsPerHour:     10,
		AutoImplementFraction: 0.5,
		UserIndexes:           true,
		Plane:                 controlplane.DefaultConfig(),
	}
}

// ScaleResult summarizes a scale run. Report() renders only the
// residency-independent portion — the bytes that must match across
// -workers and -resident-tenants settings; the residency counters
// (Hibernations, Rehydrations, PeakResident, PeakHeapBytes) measure the
// memory machinery itself and legitimately vary with the cap.
type ScaleResult struct {
	Tenants     int
	EverActive  int
	TenantHours int64
	Statements  int64
	Completed   int
	DrainHours  int

	Hibernations  int64
	Rehydrations  int64
	SnapshotBytes int64
	PeakResident  int
	PeakHeapBytes uint64

	Stats   controlplane.OperationalStats
	Chaos   *ChaosReport
	Metrics *metrics.Registry
}

// Report renders the deterministic summary block: identical bytes at any
// -workers count and any -resident-tenants cap for the same seed/flags.
func (r *ScaleResult) Report() string {
	s := r.Stats
	var b strings.Builder
	b.WriteString("fleet scale run:\n")
	fmt.Fprintf(&b, "  tenants (nominal / ever active):   %d / %d\n", r.Tenants, r.EverActive)
	fmt.Fprintf(&b, "  tenant-hours replayed:             %d\n", r.TenantHours)
	fmt.Fprintf(&b, "  statements replayed:               %d\n", r.Statements)
	fmt.Fprintf(&b, "  tenants completed (streamed):      %d\n", r.Completed)
	fmt.Fprintf(&b, "  create / drop recommendations:     %d / %d\n", s.CreateRecommended, s.DropRecommended)
	fmt.Fprintf(&b, "  indexes auto-created / dropped:    %d / %d\n", s.CreatesImplemented, s.DropsImplemented)
	fmt.Fprintf(&b, "  validations / reverts:             %d / %d\n", s.Validations, s.Reverts)
	fmt.Fprintf(&b, "  incidents:                         %d\n", s.Incidents)
	return b.String()
}

// ResidencyReport renders the residency counters. These depend on
// -resident-tenants (and PeakHeapBytes on the host), so the fleetsim
// binary prints them to stderr, next to the phase timers.
func (r *ScaleResult) ResidencyReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "residency: peak %d resident, %d hibernations, %d rehydrations, %d snapshot bytes, peak heap %d bytes\n",
		r.PeakResident, r.Hibernations, r.Rehydrations, r.SnapshotBytes, r.PeakHeapBytes)
	return b.String()
}

// RunScale executes a scale-mode fleet run. Tenants are stamped lazily
// from shared archetypes on first activity, replay in parallel across the
// worker pool during active hours, hibernate under resident-set pressure,
// and stream their result line the barrier they complete. The hour loop
// itself is loop.go's, shared with RunOps.
func RunScale(spec ScaleSpec) (*ScaleResult, error) {
	if spec.Tenants <= 0 || spec.Hours <= 0 {
		return nil, fmt.Errorf("fleet: scale run needs tenants and hours")
	}
	if spec.Archetypes <= 0 {
		spec.Archetypes = 1
	}
	if spec.Stream == nil {
		spec.Stream = io.Discard
	}
	reg := spec.Plane.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		spec.Plane.Metrics = reg
	}

	// Archetype templates: built once each on throwaway clocks, then only
	// their harvested shared state survives.
	archs := make([]*workload.Archetype, spec.Archetypes)
	for a := range archs {
		tier := engine.TierStandard
		switch a % 4 {
		case 2:
			tier = engine.TierBasic
		case 3:
			tier = engine.TierPremium
		}
		p := workload.Profile{
			Name:        fmt.Sprintf("arch%02d", a),
			Tier:        tier,
			Seed:        spec.Seed + int64(a)*104729,
			Scale:       spec.Scale,
			UserIndexes: spec.UserIndexes,
		}
		arch, err := workload.NewArchetype(p, sim.NewClock())
		if err != nil {
			return nil, fmt.Errorf("fleet: archetype %d: %w", a, err)
		}
		archs[a] = arch
	}

	r := &run{
		seed:        spec.Seed,
		workers:     spec.Workers,
		hours:       spec.Hours,
		fraction:    spec.ActiveFraction,
		statements:  spec.StatementsPerHour,
		residentCap: spec.ResidentTenants,
		park:        true,
		stream:      spec.Stream,
		region:      sim.NewClock(),
		reg:         reg,
		planeCfg:    spec.Plane,
	}
	autoRNG := sim.NewRNG(spec.Seed).Child("scale/auto")
	r.slots = make([]*slot, spec.Tenants)
	for i := range r.slots {
		st := &slot{
			name:       fmt.Sprintf("t%07d", i),
			seed:       spec.Seed + int64(i)*7919,
			arch:       archs[i%len(archs)],
			auto:       autoRNG.Float64() < spec.AutoImplementFraction,
			lastActive: -1,
			finalHour:  -1,
		}
		for h := spec.Hours - 1; h >= 0; h-- {
			if activeAt(spec.Seed, st.name, h, spec.ActiveFraction) {
				st.finalHour = h
				break
			}
		}
		r.slots[i] = st
	}
	r.boot(spec.Chaos, spec.Seed, false)
	if err := r.play(); err != nil {
		return nil, err
	}
	return &ScaleResult{
		Tenants:       spec.Tenants,
		EverActive:    r.everActive,
		TenantHours:   r.tenantHours,
		Statements:    r.tenantHours * int64(spec.StatementsPerHour),
		Completed:     r.completed,
		DrainHours:    r.drainHours,
		Hibernations:  r.hibernations,
		Rehydrations:  r.rehydrations,
		SnapshotBytes: r.snapshotBytes,
		PeakResident:  r.peakResident,
		PeakHeapBytes: r.peakHeap,
		Stats:         r.runner.Plane.OpStats(),
		Chaos:         r.chaos,
		Metrics:       reg,
	}, nil
}
