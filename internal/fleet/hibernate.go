package fleet

import (
	"fmt"

	"autoindex/internal/snap"
	"autoindex/internal/workload"
)

// Tenant hibernation: the serialize/rehydrate pair the scale harness uses
// to keep only a bounded resident set of tenants fully materialized.
//
// A hibernated tenant is one sealed snap envelope (magic + version +
// length + checksum + body) holding the tenant's workload state (RNG
// position, id streams) and the full engine snapshot (schema, storage,
// indexes, statistics, query store, DMVs — with definitions, rows, tree
// leaves and index entries the tenant still shares with its archetype
// written as references, not values). The Tenant and Database shells
// stay resident, so every pointer the control plane, chaos harness or
// bulk-feed machinery holds into the tenant remains valid across a
// hibernate/rehydrate cycle; only the heavy interior state is rebuilt.
//
// Hibernation happens only at hour barriers, after the engine has been
// parked (Database.Park) — the plan-cost cache is empty, every lock lease
// has expired, and the tenant clock is about to be realigned — so the
// snapshot never needs to serialize caches, locks or clocks, and a
// rehydrated tenant is byte-for-byte indistinguishable from a twin that
// never hibernated.

// hibernateTenant serializes a parked tenant into its compact hibernated
// form. The tenant's interior state is untouched; pair with
// (*workload.Tenant).Release to actually free it.
func hibernateTenant(tn *workload.Tenant) []byte {
	var w snap.Writer
	tn.EncodeTo(&w)
	return w.Seal()
}

// rehydrateTenant rebuilds a tenant in place from a hibernateTenant
// snapshot. It is the fuzz-hardened decode entry point: any corruption —
// bit flips (checksum), truncation, length lies, structural violations,
// trailing garbage — returns an error wrapping snap.ErrCorrupt and never
// panics.
func rehydrateTenant(tn *workload.Tenant, blob []byte) error {
	r, err := snap.Open(blob)
	if err != nil {
		return err
	}
	if err := tn.DecodeFrom(r); err != nil {
		return err
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("hibernate: trailing bytes after tenant state: %w", err)
	}
	return nil
}
