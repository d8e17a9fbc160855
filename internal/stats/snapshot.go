package stats

import "autoindex/internal/snap"

// Snap walks the statistics object bit-exactly (float bits, value
// kinds) so a private, tenant-forked histogram survives hibernation
// unchanged. Archetype-shared statistics are encoded as a reference by
// the engine instead and never pass through here.
func (s *ColumnStats) Snap(c snap.Codec) {
	c.String(&s.Column)
	c.Float(&s.RowCount)
	c.Float(&s.Nulls)
	c.Float(&s.Distinct)
	c.Value(&s.Min)
	c.Value(&s.Max)
	snap.Slice(c, &s.Buckets, func(c snap.Codec, b *Bucket) {
		c.Value(&b.Upper)
		c.Float(&b.Rows)
		c.Float(&b.Distinct)
	})
	c.Float(&s.SampleRate)
	c.Time(&s.BuiltAt)
}
