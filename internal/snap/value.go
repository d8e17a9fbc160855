package snap

import "autoindex/internal/value"

// Value appends a typed scalar: kind byte, then the kind's payload.
func (w *Writer) Value(v value.Value) {
	w.buf = append(w.buf, byte(v.K))
	switch v.K {
	case value.Null:
	case value.Float:
		w.Float(v.F)
	case value.String:
		w.String(v.S)
	default: // Int, Bool, Time share the I field
		w.Varint(v.I)
	}
}

// Row appends a length-prefixed tuple of values.
func (w *Writer) Row(row value.Row) {
	w.Uvarint(uint64(len(row)))
	for _, v := range row {
		w.Value(v)
	}
}

// Value reads a typed scalar, rejecting unknown kinds.
func (r *Reader) Value() value.Value {
	if r.remaining() < 1 {
		r.Failf("truncated value kind")
		return value.Value{}
	}
	v := value.Value{K: value.Kind(r.buf[r.off])}
	r.off++
	switch v.K {
	case value.Null:
	case value.Float:
		v.F = r.Float()
	case value.String:
		v.S = r.String()
	case value.Int, value.Bool, value.Time:
		v.I = r.Varint()
	default:
		r.Failf("unknown value kind %d", v.K)
	}
	if r.err != nil {
		return value.Value{}
	}
	return v
}

// Row reads a length-prefixed tuple of values.
func (r *Reader) Row() value.Row {
	row := make(value.Row, r.Len())
	for i := range row {
		row[i] = r.Value()
	}
	return row
}
