package fleet

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"
)

// perTenantBudgetBytes is the committed steady-state memory budget for
// one resident scale-mode tenant at Scale 0.25, measured as the peak
// heap delta of a fully-resident 1k-tenant run divided by the tenant
// count. The budget is ~2.5x the measured footprint (0.8 MB when set,
// since stamps clone the archetype's trees and share their entries; see
// EXPERIMENTS.md "Scale-mode memory methodology") so ordinary GC noise
// never trips it, while a real regression — a tenant copying what it
// should alias from the shared catalog, a snapshot retained past
// rehydration — blows straight through. Revisit the constant
// deliberately, with a fresh measurement, never by bumping it to green a
// failing run.
const perTenantBudgetBytes = 2 << 20

// TestScaleMemoryBudget is the memory-footprint regression gate (wired
// into `make bench-gate`): a 1k-tenant fully-resident scale run must fit
// the committed per-tenant budget. Copy-on-write sharing is what makes
// this budget possible at all — each tenant pays for its B+ tree nodes,
// query store and DMVs, not for its schema, base rows, index entries or
// histograms.
func TestScaleMemoryBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("scale simulation is slow")
	}
	if raceEnabled {
		t.Skip("race-detector shadow memory invalidates the footprint measurement")
	}
	// Keep HeapAlloc tracking the live set rather than collectible garbage:
	// the run's peak is sampled at hour barriers without forcing GC.
	old := debug.SetGCPercent(20)
	defer debug.SetGCPercent(old)
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	const tenants = 1000
	spec := DefaultScaleSpec(tenants, 2)
	spec.Archetypes = 2
	spec.Scale = 0.25
	spec.ActiveFraction = 1.0 // every tenant resident every hour
	spec.StatementsPerHour = 4
	spec.Stream = io.Discard
	res, err := RunScale(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakResident != tenants {
		t.Fatalf("expected all %d tenants resident at peak, got %d", tenants, res.PeakResident)
	}
	if res.PeakHeapBytes <= m0.HeapAlloc {
		t.Fatalf("degenerate measurement: peak heap %d <= baseline %d", res.PeakHeapBytes, m0.HeapAlloc)
	}
	perTenant := (res.PeakHeapBytes - m0.HeapAlloc) / tenants
	t.Logf("per-tenant steady-state footprint: %d bytes (budget %d)", perTenant, perTenantBudgetBytes)
	if perTenant > perTenantBudgetBytes {
		t.Fatalf("per-tenant footprint %d bytes exceeds committed budget %d bytes — a COW or hibernation leak, or a deliberate change that needs a re-measured budget",
			perTenant, perTenantBudgetBytes)
	}
}
