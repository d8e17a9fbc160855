package main

import (
	"fmt"

	"autoindex/internal/fleet"
	"autoindex/internal/workload"
)

// Sizes of the traced passes, per second of -seconds. A traced run
// measures all three stacks on the workload's own tenants, so each pass
// is a fraction of the end-to-end run's size.
const (
	tracedSeekPerSecond   = 1500
	tracedMixedPerSecond  = 60
	tracedReplayPerSecond = 40 // per tenant profile
	tracedOpsDays         = 1
)

// subject is what a traced run measures the three stacks on: the
// workload's tenants (as a fleet spec) and the statements it sends them.
type subject struct {
	spec fleet.Spec
	// twins returns the serving probe's builders for the fleet's tenant
	// profiles.
	twins func(profiles []workload.Profile, p params) []buildTwin
	// stmtsPerHour is the replay budget of the scale probe's hours.
	stmtsPerHour int
	// servingOverhead says the traced-versus-untraced pass of the
	// workload's own shape is the serving probe's statements; otherwise
	// it is the tuning probe's hour loop.
	servingOverhead bool
}

// serveFleetSpec is the one-database fleet whose only tenant is the
// tenant the serve workloads run against (see serveProfile).
func serveFleetSpec(p params) fleet.Spec {
	s := fleetSpec(p)
	s.Databases, s.MixedTiers, s.Tier = 1, false, serveProfile(p).Tier
	return s
}

// maxProbeProfiles is how many of a fleet's tenants the serving and
// scale probes visit: one tier cycle of fleet.Build's mix (Standard,
// Standard, Basic, Premium) stands for the whole fleet.
const maxProbeProfiles = 4

func replayTwins(profiles []workload.Profile, p params) []buildTwin {
	if len(profiles) > maxProbeProfiles {
		profiles = profiles[:maxProbeProfiles]
	}
	out := make([]buildTwin, len(profiles))
	for i, profile := range profiles {
		out[i] = func() (*serveInput, error) {
			return buildReplay(profile, p.seed, scaled(tracedReplayPerSecond, p))
		}
	}
	return out
}

func subjectOf(name string, p params) subject {
	switch name {
	case "serve_seek":
		return subject{
			spec: serveFleetSpec(p),
			twins: func(_ []workload.Profile, p params) []buildTwin {
				return []buildTwin{func() (*serveInput, error) { return buildSeek(p, scaled(tracedSeekPerSecond, p)) }}
			},
			stmtsPerHour: fleetStmtsPerTenantHour, servingOverhead: true,
		}
	case "serve_mixed":
		return subject{
			spec: serveFleetSpec(p),
			twins: func(_ []workload.Profile, p params) []buildTwin {
				return []buildTwin{func() (*serveInput, error) { return buildMixed(p, scaled(tracedMixedPerSecond, p)) }}
			},
			stmtsPerHour: fleetStmtsPerTenantHour, servingOverhead: true,
		}
	case "tune_fleet":
		return subject{spec: fleetSpec(p), twins: replayTwins, stmtsPerHour: fleetStmtsPerTenantHour}
	default:
		// Three tenants of the tiers and data scale RunScale gives its
		// three archetypes.
		spec := fleetSpec(p)
		spec.Databases, spec.Scale = 3, scaleSpec(p, 1).Scale
		return subject{spec: spec, twins: replayTwins, stmtsPerHour: scaleStmtsPerHour}
	}
}

// runTraced is the -trace 1 run of a workload: the three stack probes on
// the workload's own tenants, spans written to trace-<workload>.json.
func runTraced(name string, p params) (*outcome, error) {
	o := &outcome{Workload: name}
	sub := subjectOf(name, p)
	tr := newTracer()

	phase := startTimer()
	profiles, overheadPct, err := probeTuning(o, tr, sub.spec, p, tracedOpsDays)
	if err != nil {
		return nil, fmt.Errorf("tuning stack: %w", err)
	}
	tuningS := phase.seconds()
	phase = startTimer()
	servingPct, err := probeServing(o, tr, sub.twins(profiles, p), p)
	if err != nil {
		return nil, fmt.Errorf("serving stack: %w", err)
	}
	if sub.servingOverhead {
		overheadPct = servingPct
	}
	o.add("trace_overhead_pct", overheadPct, 1)
	servingS := phase.seconds()
	phase = startTimer()
	if len(profiles) > maxProbeProfiles {
		profiles = profiles[:maxProbeProfiles]
	}
	if err := probeScale(o, tr, profiles, sub.stmtsPerHour); err != nil {
		return nil, fmt.Errorf("scale stack: %w", err)
	}
	o.Notes = append(o.Notes, fmt.Sprintf("probes took %.1f s tuning, %.1f s serving, %.1f s scale", tuningS, servingS, phase.seconds()))
	// Residency counters exist only where RunScale runs; elsewhere no
	// tenant hibernates and the counts are truly zero.
	var res fleet.ScaleResult
	if name == "scale_churn" {
		r, err := fleet.RunScale(scaleSpec(p, scaled(scaleTenantsPerSecond, p)/4))
		if err != nil {
			return nil, err
		}
		res = *r
		o.Attempted += res.TenantHours
		o.Failed += res.Stats.Incidents
	}
	o.add("fleet.hibernations", float64(res.Hibernations), 1)
	o.add("fleet.rehydrations", float64(res.Rehydrations), 1)
	o.add("fleet.snapshot_mb", bytesToMB(uint64(res.SnapshotBytes)), 1)
	o.add("fleet.peak_resident", float64(res.PeakResident), 1)

	if err := writeJSON(p.outDir, "trace-"+name+".json", tr.spans, false); err != nil {
		return nil, err
	}
	o.count("spans", int64(len(tr.spans)))
	return o, nil
}
