package dmv

import (
	"strings"

	"autoindex/internal/snap"
)

// walkEntry is the snapshot layout of one missing-index DMV row.
func walkEntry(c snap.Codec, e *Entry) {
	c.String(&e.Candidate.Table)
	c.Strings(&e.Candidate.Equality)
	c.Strings(&e.Candidate.Inequality)
	c.Strings(&e.Candidate.Include)
	c.Varint(&e.Seeks)
	c.Float(&e.AvgQueryCost)
	c.Float(&e.AvgImprovementPct)
	snap.Map(c, &e.QueryHashes, func(c snap.Codec, h *uint64, n *int64) {
		c.Uvarint(h)
		c.Varint(n)
	})
	c.Time(&e.FirstSeen)
	c.Time(&e.LastSeen)
}

// walkMissingIndex is the missing-index store's snapshot layout: the
// reset counter, then the entries in ascending candidate-key order. The
// key is not on the wire; decoding derives it from the candidate.
func walkMissingIndex(c snap.Codec, resets *int64, entries *map[string]*Entry) {
	c.Varint(resets)
	snap.Map(c, entries, func(c snap.Codec, k *string, ep **Entry) {
		walkEntry(c, snap.Ptr(c, ep))
		if c.Decoding() {
			*k = (*ep).Candidate.Key()
		}
	})
}

// EncodeTo serializes the missing-index store for tenant hibernation.
func (s *MissingIndexStore) EncodeTo(w *snap.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	walkMissingIndex(snap.Encoder(w), &s.resets, &s.entries)
}

// DecodeFrom decodes a snapshot into staged state and returns the commit
// that swaps it into the store in place, so recommender references stay
// valid. The store is untouched until commit runs; the caller runs it
// only after r.Err() has vouched for the whole snapshot.
func (s *MissingIndexStore) DecodeFrom(r *snap.Reader) (commit func()) {
	var resets int64
	var entries map[string]*Entry
	walkMissingIndex(snap.Decoder(r), &resets, &entries)
	return func() {
		s.mu.Lock()
		s.entries, s.resets = entries, resets
		s.mu.Unlock()
	}
}

// Release drops accumulated candidates while keeping the store shell.
func (s *MissingIndexStore) Release() {
	s.mu.Lock()
	s.entries = nil
	s.mu.Unlock()
}

// walkUsage is the snapshot layout of one index-usage row.
func walkUsage(c snap.Codec, e *IndexUsage) {
	c.String(&e.Index)
	c.String(&e.Table)
	c.Varint(&e.Seeks)
	c.Varint(&e.Scans)
	c.Varint(&e.Lookups)
	c.Varint(&e.Updates)
	c.Time(&e.LastRead)
}

// walkIndexUsage is the usage store's snapshot layout: rows in ascending
// lower-cased index name, which decoding derives from the row.
func walkIndexUsage(c snap.Codec, entries *map[string]*IndexUsage) {
	snap.Map(c, entries, func(c snap.Codec, k *string, ep **IndexUsage) {
		walkUsage(c, snap.Ptr(c, ep))
		if c.Decoding() {
			*k = strings.ToLower((*ep).Index)
		}
	})
}

// EncodeTo serializes the index-usage rows for tenant hibernation.
func (s *IndexUsageStore) EncodeTo(w *snap.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	walkIndexUsage(snap.Encoder(w), &s.entries)
}

// DecodeFrom decodes a snapshot into staged rows and returns the commit
// that swaps them in; see MissingIndexStore.DecodeFrom.
func (s *IndexUsageStore) DecodeFrom(r *snap.Reader) (commit func()) {
	var entries map[string]*IndexUsage
	walkIndexUsage(snap.Decoder(r), &entries)
	return func() {
		s.mu.Lock()
		s.entries = entries
		s.mu.Unlock()
	}
}

// Release drops accumulated rows while keeping the store shell.
func (s *IndexUsageStore) Release() {
	s.mu.Lock()
	s.entries = nil
	s.mu.Unlock()
}
