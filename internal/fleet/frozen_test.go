package fleet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"autoindex/internal/metrics"
)

// The determinism tests compare a run with itself at another -workers;
// this one compares a run with the previous commit. Every row hashes the
// bytes the determinism contract covers — reports, tenant stream, chaos
// report, audit outcome and the deterministic metrics snapshot — against
// a recorded constant, so a refactor is proven byte-for-byte, not just
// self-consistent. A deliberate behaviour change re-records the constants
// (the failure message prints the new value) and says in CHANGES.md
// which bytes moved.

// frozenMetrics is Registry.MarshalDeterministic with the named metrics
// left out.
func frozenMetrics(t *testing.T, reg *metrics.Registry, skip ...string) string {
	t.Helper()
	var keep []metrics.MetricSnapshot
next:
	for _, m := range reg.Snapshot(false) {
		for _, name := range skip {
			if m.Name == name {
				continue next
			}
		}
		keep = append(keep, m)
	}
	b, err := json.Marshal(keep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// frozenOps is 4 mixed-tier tenants over 3 days with every per-hour
// feature of the ops loop switched on: growth, failovers, a statement
// budget hook, and a mix of auto-implementing and advisory databases.
func frozenOps(t *testing.T, chaos ChaosConfig, audit bool) string {
	t.Helper()
	spec := Spec{Databases: 4, MixedTiers: true, Seed: 20170301, UserIndexes: true, Workers: 2}
	f, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultOpsConfig()
	cfg.Days = 3
	cfg.StatementsPerHour = 8
	cfg.AutoImplementFraction = 0.6
	cfg.NewTenantEvery = 36 * time.Hour
	cfg.FailoverProb = 0.5
	cfg.Chaos = chaos
	cfg.AuditInvariants = audit
	cfg.Hooks.StatementsFor = func(hour int, tenant string) int {
		if hour%7 == 3 && tenant == "db001" {
			return 30
		}
		return -1
	}
	res, err := f.RunOps(Spec{Seed: spec.Seed, UserIndexes: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(res.Report() + res.RevertReport() + res.Stats.String() + "\n")
	if res.Chaos != nil {
		b.WriteString(res.Chaos.Format())
	}
	fmt.Fprintln(&b, len(f.Tenants), res.Audited, res.DrainHours, res.Violations)
	// The ops loop never set the resident gauge before the merge (it read
	// 0); the shared loop reports the true resident count.
	b.WriteString(frozenMetrics(t, f.Metrics, "fleet.resident_tenants"))
	return b.String()
}

func frozenScale(t *testing.T, residentCap int, chaos ChaosConfig) string {
	t.Helper()
	spec := DefaultScaleSpec(300, 24)
	spec.Archetypes = 3
	spec.Scale = 0.25
	spec.Seed = 7
	spec.ActiveFraction = 0.05
	spec.StatementsPerHour = 8
	spec.Workers = 2
	spec.ResidentTenants = residentCap
	spec.Chaos = chaos
	var b strings.Builder
	spec.Stream = &b
	res, err := RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString(res.Report())
	if res.Chaos != nil {
		b.WriteString(res.Chaos.Format())
	}
	fmt.Fprintln(&b, res.EverActive, res.DrainHours, res.Hibernations, res.Rehydrations, res.SnapshotBytes, res.PeakResident)
	b.WriteString(frozenMetrics(t, res.Metrics))
	return b.String()
}

func TestFleetOutputsFrozen(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet simulation is slow")
	}
	if raceEnabled {
		t.Skip("the scale rows take minutes under the race detector; the determinism tests cover the parallel paths")
	}
	off, on := ChaosConfig{}, DefaultChaosConfig()
	for _, row := range []struct {
		name string
		run  func() string
		want uint64
	}{
		{"ops", func() string { return frozenOps(t, off, false) }, 0x1e1b736cedaf5db9},
		{"ops/chaos", func() string { return frozenOps(t, on, false) }, 0x8a0dfa823e4a430e},
		{"ops/audit", func() string { return frozenOps(t, off, true) }, 0xb0c42534abb0f854},
		{"scale/cap4", func() string { return frozenScale(t, 4, off) }, 0x0cdae00bd289a3f7},
		{"scale/cap0", func() string { return frozenScale(t, 0, off) }, 0x276bff2f5bc0a31c},
		{"scale/cap4/chaos", func() string { return frozenScale(t, 4, on) }, 0xbb509ff8c40df0a3},
		{"scale/cap0/chaos", func() string { return frozenScale(t, 0, on) }, 0xde7a806752d8f4bf},
	} {
		h := fnv.New64a()
		h.Write([]byte(row.run()))
		if got := h.Sum64(); got != row.want {
			t.Errorf("%s: output hash %#016x, frozen at %#016x", row.name, got, row.want)
		}
	}
}
