package wire

// Little-endian integer and length-encoded codecs shared by both sides
// of the protocol. Appenders build packet payloads; the reader is a
// sticky-error cursor over a received payload, so parse sites check
// r.ok() once at the end instead of after every field.

func appendUint16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func appendUint24(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendLenencInt appends a length-encoded integer.
func appendLenencInt(b []byte, v uint64) []byte {
	switch {
	case v < 251:
		return append(b, byte(v))
	case v < 1<<16:
		return appendUint16(append(b, 0xfc), uint16(v))
	case v < 1<<24:
		return appendUint24(append(b, 0xfd), uint32(v))
	default:
		return appendUint64(append(b, 0xfe), v)
	}
}

func appendLenencString(b []byte, s string) []byte {
	b = appendLenencInt(b, uint64(len(s)))
	return append(b, s...)
}

func appendNulString(b []byte, s string) []byte {
	b = append(b, s...)
	return append(b, 0)
}

// Exported appender/cursor surface for the session layer
// (internal/serve), which builds and parses command payloads.

// AppendUint16 appends v little-endian.
func AppendUint16(b []byte, v uint16) []byte { return appendUint16(b, v) }

// AppendUint32 appends v little-endian.
func AppendUint32(b []byte, v uint32) []byte { return appendUint32(b, v) }

// AppendLenencInt appends a length-encoded integer.
func AppendLenencInt(b []byte, v uint64) []byte { return appendLenencInt(b, v) }

// PayloadReader is an exported sticky-error cursor over a command
// payload.
type PayloadReader struct{ r reader }

// NewPayloadReader returns a cursor over b.
func NewPayloadReader(b []byte) *PayloadReader { return &PayloadReader{r: reader{b: b}} }

// ReadUint32 reads a little-endian uint32.
func (p *PayloadReader) ReadUint32() uint32 { return p.r.uint32() }

// Skip advances past n bytes.
func (p *PayloadReader) Skip(n int) { p.r.skip(n) }

// Rest returns the unread remainder.
func (p *PayloadReader) Rest() []byte { return p.r.rest() }

// OK reports whether every read so far was in bounds.
func (p *PayloadReader) OK() bool { return p.r.ok() }

// reader is a cursor over one packet payload. The first out-of-bounds
// read marks it bad; subsequent reads return zero values, and callers
// check ok() once after decoding a structure.
type reader struct {
	b   []byte
	off int
	bad bool
}

func newReader(b []byte) *reader { return &reader{b: b} }

func (r *reader) ok() bool       { return !r.bad }
func (r *reader) remaining() int { return len(r.b) - r.off }
func (r *reader) rest() []byte   { out := r.b[r.off:]; r.off = len(r.b); return out }

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) skip(n int) { r.bytes(n) }

func (r *reader) uint8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) uint16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *reader) uint24() uint32 {
	b := r.bytes(3)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16
}

func (r *reader) uint32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *reader) uint64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// lenencInt reads a length-encoded integer. 0xfb (NULL) and 0xff (ERR
// marker) are invalid here; row decoders check for them before calling.
func (r *reader) lenencInt() uint64 {
	switch first := r.uint8(); {
	case first < 251:
		return uint64(first)
	case first == 0xfc:
		return uint64(r.uint16())
	case first == 0xfd:
		return uint64(r.uint24())
	case first == 0xfe:
		return r.uint64()
	default:
		r.bad = true
		return 0
	}
}

func (r *reader) lenencBytes() []byte {
	n := r.lenencInt()
	if r.bad || n > uint64(r.remaining()) {
		r.bad = true
		return nil
	}
	return r.bytes(int(n))
}

func (r *reader) lenencString() string { return string(r.lenencBytes()) }

func (r *reader) nulString() string {
	for i := r.off; i < len(r.b); i++ {
		if r.b[i] == 0 {
			s := string(r.b[r.off:i])
			r.off = i + 1
			return s
		}
	}
	r.bad = true
	return ""
}
