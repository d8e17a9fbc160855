package main

import (
	"fmt"

	"autoindex/internal/sim"
	"autoindex/internal/workload"
)

const (
	// stampedPerArchetype tenants are stamped from each archetype, and
	// each goes through cyclesPerTenant hibernate/rehydrate cycles with an
	// hour of replay before every one.
	stampedPerArchetype = 4
	cyclesPerTenant     = 3
)

// probeScale measures the scale stack on archetypes built from profiles:
// building an archetype, stamping a tenant from it, and the hibernate
// and rehydrate halves of a residency cycle (see hibernate, rehydrate).
// One request span per cycle.
func probeScale(o *outcome, tr *tracer, profiles []workload.Profile, stmtsPerHour int) error {
	var archNs, stampNs, hibNs, rehNs, blobBytes, stamped, cycles int64
	for _, p := range profiles {
		t := startTimer()
		arch, err := workload.NewArchetype(p, sim.NewClock())
		archNs += t.ns()
		if err != nil {
			return fmt.Errorf("archetype %s: %w", p.Name, err)
		}
		for k := 0; k < stampedPerArchetype; k++ {
			name := fmt.Sprintf("%s-t%d", p.Name, k)
			t = startTimer()
			tn, err := workload.NewTenantFromArchetype(arch, name, p.Seed+int64(k+1)*7919, sim.NewClock())
			stampNs += t.ns()
			if err != nil {
				return fmt.Errorf("stamping %s: %w", name, err)
			}
			stamped++
			for c := 0; c < cyclesPerTenant; c++ {
				if st := tn.Run(0, stmtsPerHour); st.Errors > 0 {
					o.Failed += int64(st.Errors)
					o.problem("%d of %d replayed statements failed on %s", st.Errors, st.Statements, name)
				}
				o.Attempted += int64(stmtsPerHour)
				tr.request("cycle")
				tr.begin("snap.hibernate")
				blob := hibernate(tn)
				hibNs += tr.end()
				tr.begin("snap.rehydrate")
				err := rehydrate(tn, blob)
				rehNs += tr.end()
				tr.end()
				if err != nil {
					return fmt.Errorf("rehydrating %s: %w", name, err)
				}
				blobBytes += int64(len(blob))
				cycles++
			}
		}
	}
	archetypes := int64(len(profiles))
	o.add("workload.archetype_build_ms", nsToMillis(archNs)/float64(archetypes), int(archetypes))
	o.add("workload.stamp_ms", nsToMillis(stampNs)/float64(stamped), int(stamped))
	o.add("snap.hibernate_ms", nsToMillis(hibNs)/float64(cycles), int(cycles))
	o.add("snap.rehydrate_ms", nsToMillis(rehNs)/float64(cycles), int(cycles))
	o.add("snap.bytes_per_tenant", float64(blobBytes)/float64(cycles), int(cycles))
	o.add("snap.encode_mb_per_s", bytesToMB(uint64(blobBytes))/(float64(hibNs)/1e9), int(cycles))
	return nil
}
