package snap

import (
	"cmp"
	"slices"
	"time"

	"autoindex/internal/value"
)

// Codec is a Writer or a Reader behind one set of pointer-taking
// methods: each call writes *p when encoding and fills *p when decoding.
// A persisted record is described by one walk function over a Codec,
// which EncodeTo and DecodeFrom both call, so its field order exists in
// exactly one place. Encoding only ever reads through the pointers, so a
// walk may run over live state under a read lock.
type Codec struct {
	w *Writer
	r *Reader
}

// Encoder returns a Codec that writes to w.
func Encoder(w *Writer) Codec { return Codec{w: w} }

// Decoder returns a Codec that reads from r, inheriting its sticky error.
func Decoder(r *Reader) Codec { return Codec{r: r} }

// Decoding reports whether the walk is filling its pointers.
func (c Codec) Decoding() bool { return c.r != nil }

// Writer returns the underlying writer (nil when decoding), for
// structural pieces whose two directions are separate bodies.
func (c Codec) Writer() *Writer { return c.w }

// Reader returns the underlying reader (nil when encoding).
func (c Codec) Reader() *Reader { return c.r }

// Uvarint walks an unsigned varint.
func (c Codec) Uvarint(p *uint64) {
	if c.r != nil {
		*p = c.r.Uvarint()
	} else {
		c.w.Uvarint(*p)
	}
}

// Varint walks a signed varint.
func (c Codec) Varint(p *int64) {
	if c.r != nil {
		*p = c.r.Varint()
	} else {
		c.w.Varint(*p)
	}
}

// Int walks an int as a signed varint.
func (c Codec) Int(p *int) {
	if c.r != nil {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

// Bool walks a boolean.
func (c Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// Float walks a float64, bit-exactly.
func (c Codec) Float(p *float64) {
	if c.r != nil {
		*p = c.r.Float()
	} else {
		c.w.Float(*p)
	}
}

// String walks a length-prefixed string.
func (c Codec) String(p *string) {
	if c.r != nil {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// Value walks a typed scalar.
func (c Codec) Value(p *value.Value) {
	if c.r != nil {
		*p = c.r.Value()
	} else {
		c.w.Value(*p)
	}
}

// Time walks an instant as signed-varint Unix nanoseconds; decoded times
// are UTC.
func (c Codec) Time(p *time.Time) {
	if c.r != nil {
		*p = time.Unix(0, c.r.Varint()).UTC()
	} else {
		c.w.Varint(p.UnixNano())
	}
}

// Strings walks a length-prefixed list of strings.
func (c Codec) Strings(p *[]string) { Slice(c, p, Codec.String) }

// Enum walks a small enumeration as an unsigned varint, rejecting
// decoded values above max.
func Enum[T ~uint8](c Codec, p *T, max T) {
	if c.r == nil {
		c.w.Uvarint(uint64(*p))
		return
	}
	v := c.r.Uvarint()
	if v > uint64(max) {
		c.r.Failf("enum value %d above %d", v, max)
		v = 0
	}
	*p = T(v)
}

// Ptr returns the record a pointer-valued element refers to, allocating
// a fresh one first when decoding.
func Ptr[T any](c Codec, pp **T) *T {
	if c.r != nil {
		*pp = new(T)
	}
	return *pp
}

// Slice walks a length-prefixed slice, element by element. Decoding
// allocates only after Len has measured the count against the input.
func Slice[T any](c Codec, s *[]T, elem func(Codec, *T)) {
	if c.r != nil {
		*s = make([]T, c.r.Len())
	} else {
		c.w.Uvarint(uint64(len(*s)))
	}
	for i := range *s {
		elem(c, &(*s)[i])
	}
}

// Map walks a map as a count followed by its entries in ascending key
// order — the one place map iteration order is erased from snapshots.
// entry walks one key/value pair: encoding hands it the key and value to
// write; decoding hands it zero ones to fill, and a key that is not on
// the wire by itself (because it is derived from the value) is the
// entry's to set. A decoded key seen twice is corruption.
func Map[K cmp.Ordered, V any](c Codec, m *map[K]V, entry func(Codec, *K, *V)) {
	// One key and one value cell for the whole walk: their addresses
	// escape through entry, so per-iteration cells would each allocate.
	var k K
	var v V
	if c.r == nil {
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		c.w.Uvarint(uint64(len(keys)))
		for _, k = range keys {
			v = (*m)[k]
			entry(c, &k, &v)
		}
		return
	}
	n := c.r.Len()
	out := make(map[K]V, n)
	for i := 0; i < n; i++ {
		k, v = *new(K), *new(V)
		entry(c, &k, &v)
		if c.r.err != nil {
			break
		}
		if _, dup := out[k]; dup {
			c.r.Failf("duplicate map key %v", k)
			break
		}
		out[k] = v
	}
	*m = out
}
