package querystore

import (
	"autoindex/internal/mathx"
	"autoindex/internal/snap"
)

// walkStore is the store's snapshot layout: execution totals, then the
// queries in ascending query hash, each with its plans in ascending plan
// hash and their intervals in slice order. Both hashes are record fields
// on the wire, so decoding keys the maps from the records. Clock,
// interval and the chaos dropper are runtime wiring that stays resident
// through hibernation and is not serialized.
func walkStore(c snap.Codec, dropped, totalExecs, liveExecs *int64, queries *map[uint64]*QueryEntry) {
	c.Varint(dropped)
	c.Varint(totalExecs)
	c.Varint(liveExecs)
	snap.Map(c, queries, func(c snap.Codec, h *uint64, qp **QueryEntry) {
		walkQuery(c, snap.Ptr(c, qp))
		*h = (*qp).QueryHash
	})
}

func walkQuery(c snap.Codec, q *QueryEntry) {
	c.Uvarint(&q.QueryHash)
	c.String(&q.Text)
	c.Bool(&q.Truncated)
	c.Bool(&q.IsWrite)
	c.Bool(&q.HasWritePredicates)
	c.Varint(&q.LiveExecutions)
	snap.Map(c, &q.Plans, func(c snap.Codec, h *uint64, pp **PlanEntry) {
		walkPlan(c, snap.Ptr(c, pp))
		*h = (*pp).Info.PlanHash
	})
}

func walkPlan(c snap.Codec, p *PlanEntry) {
	c.Uvarint(&p.Info.PlanHash)
	c.Strings(&p.Info.IndexesUsed)
	c.Time(&p.FirstSeen)
	c.Time(&p.LastSeen)
	snap.Slice(c, &p.Intervals, func(c snap.Codec, ivp **IntervalStats) {
		iv := snap.Ptr(c, ivp)
		c.Time(&iv.Start)
		c.Varint(&iv.Count)
		walkWelford(c, &iv.CPU)
		walkWelford(c, &iv.Reads)
		walkWelford(c, &iv.Duration)
	})
}

func walkWelford(c snap.Codec, v *mathx.Welford) {
	n, mean, m2 := v.N, v.Mean, v.M2()
	c.Varint(&n)
	c.Float(&mean)
	c.Float(&m2)
	if c.Decoding() {
		*v = mathx.WelfordFromParts(n, mean, m2)
	}
}

// EncodeTo serializes the store's aggregated state for hibernation.
func (s *Store) EncodeTo(w *snap.Writer) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	walkStore(snap.Encoder(w), &s.dropped, &s.totalExecs, &s.liveExecs, &s.queries)
}

// DecodeFrom decodes a snapshot into staged state and returns the commit
// that swaps it into the store in place, so engine and control-plane
// references to the Store (and its dropper hook) stay valid across
// hibernation. The store is untouched until commit runs; the caller runs
// it only after r.Err() has vouched for the whole snapshot.
func (s *Store) DecodeFrom(r *snap.Reader) (commit func()) {
	var dropped, totalExecs, liveExecs int64
	var queries map[uint64]*QueryEntry
	walkStore(snap.Decoder(r), &dropped, &totalExecs, &liveExecs, &queries)
	return func() {
		s.mu.Lock()
		s.queries = queries
		s.dropped, s.totalExecs, s.liveExecs = dropped, totalExecs, liveExecs
		s.mu.Unlock()
	}
}

// Release drops the aggregated state (the memory hibernation reclaims)
// while keeping the Store shell — clock, interval, dropper — resident.
func (s *Store) Release() {
	s.mu.Lock()
	s.queries = nil
	s.mu.Unlock()
}
