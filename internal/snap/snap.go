// Package snap implements the compact binary codec tenant hibernation
// serializes through (see ARCHITECTURE.md "Fleet at scale"). It is a
// deliberately small format — varint integers, float bits, length-prefixed
// strings — with two properties the fleet depends on:
//
//   - Deterministic encoding: the same logical state always produces the
//     same bytes, so snapshot bytes can be compared directly in tests and
//     a rehydrate→hibernate round trip is byte-stable.
//
//   - Hostile-input-safe decoding: every read validates lengths against
//     the remaining input before allocating, and corruption surfaces as an
//     error — never a panic, never a silently wrong value. An FNV-64a
//     checksum over the body catches bit flips wholesale; the structural
//     reader catches truncation and length lies even when the checksum has
//     been recomputed (the fuzz harness exercises exactly that path).
//
// The codec is not self-describing: reader and writer must agree on field
// order, with a version byte in the envelope gating compatibility. So
// that the two cannot drift, a persisted record's order is written once,
// as a walk function over a Codec (codec.go) that both directions call.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// Magic identifies a snapshot envelope.
const Magic = "AXSN"

// Version is the current snapshot format version. Decoders reject other
// versions rather than guessing at field layouts.
const Version = 2

// ErrCorrupt is the sentinel wrapped by every decode failure; callers
// test with errors.Is.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// corruptf builds an ErrCorrupt-wrapped error with context.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Writer accumulates an encoded body. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Varint appends a signed varint (zig-zag).
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Int appends an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Float appends a float64 as its IEEE-754 bits (little endian), so the
// round trip is bit-exact including negative zero and NaN payloads.
func (w *Writer) Float(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Len returns the current body length in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Seal wraps the body in the snapshot envelope — magic, version, body
// length, FNV-64a body checksum, body — and returns the full snapshot.
func (w *Writer) Seal() []byte {
	h := fnv.New64a()
	h.Write(w.buf)
	out := make([]byte, 0, len(Magic)+1+2*binary.MaxVarintLen64+len(w.buf))
	out = append(out, Magic...)
	out = append(out, Version)
	out = binary.AppendUvarint(out, uint64(len(w.buf)))
	out = binary.LittleEndian.AppendUint64(out, h.Sum64())
	out = append(out, w.buf...)
	return out
}

// Reader decodes an encoded body with a sticky error: the first failure
// is latched (wrapping ErrCorrupt) and the rest of the input is dropped,
// so every later read returns the zero value and Len returns 0 — loops
// over a decoded count end by themselves. Callers decode a whole
// structure, then check Err once before validating what they read or
// swapping it into live state.
type Reader struct {
	buf []byte
	off int
	err error
}

// Open validates an envelope produced by Seal and returns a Reader over
// its body.
func Open(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+1 {
		return nil, corruptf("short envelope (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic")
	}
	if v := data[len(Magic)]; v != Version {
		return nil, corruptf("unsupported version %d", v)
	}
	rest := data[len(Magic)+1:]
	bodyLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, corruptf("bad body length")
	}
	rest = rest[n:]
	if len(rest) < 8 {
		return nil, corruptf("missing checksum")
	}
	sum := binary.LittleEndian.Uint64(rest[:8])
	body := rest[8:]
	if uint64(len(body)) != bodyLen {
		return nil, corruptf("body length %d does not match envelope %d", len(body), bodyLen)
	}
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, corruptf("checksum mismatch")
	}
	return &Reader{buf: body}, nil
}

// NewBodyReader returns a Reader over a bare body with no envelope —
// used by tests to drive the structural decoder directly.
func NewBodyReader(body []byte) *Reader { return &Reader{buf: body} }

// Failf latches an ErrCorrupt-wrapped error unless one is latched
// already. Decoders call it for their own structural violations
// (duplicate keys, dangling references) so those end the decode the same
// way a truncated read does.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = corruptf(format, args...)
	}
	r.buf, r.off = nil, 0
}

// Err returns the latched error, or nil if every read so far succeeded.
func (r *Reader) Err() error { return r.err }

// Done returns the latched error, or an error unless the body was
// consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		return corruptf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) remaining() int { return len(r.buf) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Failf("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// Int reads an int, rejecting values outside the platform int range.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.Failf("int overflow %d", v)
		return 0
	}
	return int(v)
}

// Uint reads an unsigned varint that is a scalar — a row width, a tree
// order — rather than an element count: it must fit a non-negative int
// but is not measured against the remaining input the way Len is.
func (r *Reader) Uint() int {
	v := r.Uvarint()
	if v > math.MaxInt {
		r.Failf("uint overflow %d", v)
		return 0
	}
	return int(v)
}

// Len reads a non-negative count that must be representable in the
// remaining input at a minimum of one byte per element — the guard that
// keeps a lying length prefix from triggering a huge allocation.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if v > uint64(r.remaining()) {
		r.Failf("length %d exceeds %d remaining bytes", v, r.remaining())
		return 0
	}
	return int(v)
}

// Bool reads a boolean, rejecting bytes other than 0 and 1.
func (r *Reader) Bool() bool {
	if r.remaining() < 1 {
		r.Failf("truncated bool")
		return false
	}
	b := r.buf[r.off]
	r.off++
	if b > 1 {
		r.Failf("bad bool byte %d", b)
		return false
	}
	return b == 1
}

// Float reads a float64 from its IEEE-754 bits.
func (r *Reader) Float() float64 {
	if r.remaining() < 8 {
		r.Failf("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Len()
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
