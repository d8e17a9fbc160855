package workload

import (
	"autoindex/internal/engine"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
)

// sharedCatalog returns the archetype's copy-on-write catalog, or nil
// for self-generated tenants (everything serializes inline).
func (t *Tenant) sharedCatalog() *engine.SharedCatalog {
	if t.Archetype != nil {
		return t.Archetype.Shared
	}
	return nil
}

// walkTenant is the tenant header's snapshot layout: the workload RNG
// position, then the insert and feed id streams.
func walkTenant(c snap.Codec, rngPos *uint64, insertIDs, feedNext *map[string]int64) {
	walkID := func(c snap.Codec, k *string, v *int64) {
		c.String(k)
		c.Varint(v)
	}
	c.Uvarint(rngPos)
	snap.Map(c, insertIDs, walkID)
	snap.Map(c, feedNext, walkID)
}

// EncodeTo serializes the tenant's workload state followed by the full
// engine snapshot. Combined with snap.Writer.Seal this is the hibernated
// form of a tenant.
func (t *Tenant) EncodeTo(w *snap.Writer) {
	pos := t.rng.Pos()
	walkTenant(snap.Encoder(w), &pos, &t.insertIDs, &t.feedNext)
	t.DB.EncodeTo(w, t.sharedCatalog())
}

// DecodeFrom rehydrates the tenant in place from an EncodeTo snapshot.
// The Tenant and its Database shells stay resident, so control-plane,
// chaos-harness and bulk-feed references remain valid; the workload RNG
// is rebuilt from (seed, position). On error nothing has been swapped in.
func (t *Tenant) DecodeFrom(r *snap.Reader) error {
	var pos uint64
	var insertIDs, feedNext map[string]int64
	walkTenant(snap.Decoder(r), &pos, &insertIDs, &feedNext)
	if err := t.DB.DecodeFrom(r, t.sharedCatalog()); err != nil {
		return err
	}
	t.rng = sim.NewRNGAt(sim.DeriveSeed(t.Profile.Seed, "workload/"+t.Profile.Name), pos)
	t.insertIDs = insertIDs
	t.feedNext = feedNext
	return nil
}

// Release drops the tenant's heavy state after a snapshot was taken,
// keeping the shells for in-place rehydration.
func (t *Tenant) Release() {
	t.rng = nil
	t.insertIDs = nil
	t.feedNext = nil
	t.insertTails = nil
	t.DB.Release()
}
