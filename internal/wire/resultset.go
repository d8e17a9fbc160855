package wire

import (
	"fmt"
	"math"
	"strconv"

	"autoindex/internal/value"
)

func floatBits(f float64) uint64       { return math.Float64bits(f) }
func floatFromBits(b uint64) float64   { return math.Float64frombits(b) }
func float32FromBits(b uint32) float32 { return math.Float32frombits(b) }

// Column is a resultset column definition.
type Column struct {
	Schema string
	Table  string
	Name   string
	Type   byte
	Flags  uint16
}

// EncodeColumn renders a column-definition packet (protocol 41).
func EncodeColumn(col Column) []byte { return AppendColumn(nil, col) }

// AppendColumn appends a column-definition payload to b.
func AppendColumn(b []byte, col Column) []byte {
	b = appendLenencString(b, "def")
	b = appendLenencString(b, col.Schema)
	b = appendLenencString(b, col.Table)
	b = appendLenencString(b, col.Table) // org_table
	b = appendLenencString(b, col.Name)
	b = appendLenencString(b, col.Name) // org_name
	b = append(b, 0x0c)                 // fixed-length fields below
	b = appendUint16(b, utf8Charset)
	b = appendUint32(b, 255) // column length (display hint only)
	b = append(b, col.Type)
	b = appendUint16(b, col.Flags)
	b = append(b, 0)       // decimals
	b = appendUint16(b, 0) // filler
	return b
}

// ParseColumn decodes a column-definition packet.
func ParseColumn(p []byte) (*Column, error) {
	r := newReader(p)
	r.lenencString() // catalog ("def")
	col := &Column{}
	col.Schema = r.lenencString()
	col.Table = r.lenencString()
	r.lenencString() // org_table
	col.Name = r.lenencString()
	r.lenencString() // org_name
	r.skip(1)        // fixed-length marker
	r.skip(2)        // charset
	r.skip(4)        // column length
	col.Type = r.uint8()
	col.Flags = r.uint16()
	if !r.ok() {
		return nil, fmt.Errorf("wire: malformed column definition")
	}
	return col, nil
}

// TypeForKind maps an engine value kind to the wire column type used to
// describe (and binary-encode) it. A Time is declared a string so that
// both protocols carry its rendered datetime; LONGLONG would put the raw
// nanosecond count in a binary row where a text row says "2023-11-14 …".
func TypeForKind(k value.Kind) byte {
	switch k {
	case value.Int, value.Bool:
		return TypeLonglong
	case value.Float:
		return TypeDouble
	default:
		return TypeVarString
	}
}

// appendTextCell appends a value as a length-encoded string in its
// textual-protocol rendering (no SQL quoting — strings travel raw, times
// in datetime format), formatting straight into b.
func appendTextCell(b []byte, v value.Value) []byte {
	if v.K == value.String {
		return appendLenencString(b, v.S)
	}
	// Every other rendering is far below 251 bytes, the longest a
	// one-byte length prefix can announce, so the prefix is patched in
	// after formatting.
	at := len(b)
	b = append(b, 0)
	switch v.K {
	case value.Int:
		b = strconv.AppendInt(b, v.I, 10)
	case value.Float:
		b = strconv.AppendFloat(b, v.F, 'g', -1, 64)
	case value.Bool:
		if v.I != 0 {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	case value.Time:
		b = v.Time().AppendFormat(b, "2006-01-02 15:04:05")
	}
	b[at] = byte(len(b) - at - 1)
	return b
}

// EncodeTextRow renders one row of the textual protocol: each cell a
// length-encoded string, NULL as the 0xfb marker byte.
func EncodeTextRow(row []value.Value) []byte { return AppendTextRow(nil, row) }

// AppendTextRow appends a textual row payload to b. A session encodes
// every row of every response into one buffer this way.
func AppendTextRow(b []byte, row []value.Value) []byte {
	for _, v := range row {
		if v.IsNull() {
			b = append(b, 0xfb)
			continue
		}
		b = appendTextCell(b, v)
	}
	return b
}

// TextCell is one decoded cell of a textual or binary row.
type TextCell struct {
	Null bool
	Text string
}

// ParseTextRow decodes a textual row into n cells. The payload becomes
// one string and every cell's text is a slice of it.
func ParseTextRow(p []byte, n int) ([]TextCell, error) {
	r := newReader(p)
	text := string(p)
	cells := make([]TextCell, 0, n)
	for i := 0; i < n; i++ {
		if r.remaining() > 0 && r.b[r.off] == 0xfb {
			r.skip(1)
			cells = append(cells, TextCell{Null: true})
			continue
		}
		cell := r.lenencBytes()
		cells = append(cells, TextCell{Text: text[r.off-len(cell) : r.off]})
	}
	if !r.ok() || r.remaining() != 0 {
		return nil, fmt.Errorf("wire: malformed text row")
	}
	return cells, nil
}

// EncodeBinaryRow renders one row of the binary protocol: 0x00 header,
// null bitmap (offset 2), then each non-NULL value encoded by its
// column's declared type.
func EncodeBinaryRow(cols []Column, row []value.Value) []byte {
	return AppendBinaryRow(nil, cols, row)
}

// AppendBinaryRow appends a binary row payload to b.
func AppendBinaryRow(b []byte, cols []Column, row []value.Value) []byte {
	bitmap := len(b) + 1
	b = append(append(b, 0x00), make([]byte, (len(row)+7+2)/8)...)
	for i, v := range row {
		if v.IsNull() {
			pos := i + 2
			b[bitmap+pos/8] |= 1 << uint(pos%8)
			continue
		}
		switch cols[i].Type {
		case TypeLonglong:
			b = appendUint64(b, uint64(v.I))
		case TypeDouble:
			f, _ := v.AsFloat()
			b = appendUint64(b, floatBits(f))
		default:
			b = appendTextCell(b, v)
		}
	}
	return b
}

// ParseBinaryRow decodes a binary row against its column definitions,
// rendering every cell to text (the client surfaces text cells for both
// protocols, which keeps test assertions uniform).
func ParseBinaryRow(p []byte, cols []Column) ([]TextCell, error) {
	r := newReader(p)
	if r.uint8() != 0x00 {
		return nil, fmt.Errorf("wire: malformed binary row header")
	}
	bitmap := r.bytes((len(cols) + 7 + 2) / 8)
	if bitmap == nil {
		return nil, fmt.Errorf("wire: binary row shorter than its null bitmap")
	}
	cells := make([]TextCell, 0, len(cols))
	for i, col := range cols {
		pos := i + 2
		if bitmap[pos/8]&(1<<uint(pos%8)) != 0 {
			cells = append(cells, TextCell{Null: true})
			continue
		}
		switch col.Type {
		case TypeLonglong:
			cells = append(cells, TextCell{Text: strconv.FormatInt(int64(r.uint64()), 10)})
		case TypeDouble:
			cells = append(cells, TextCell{Text: strconv.FormatFloat(floatFromBits(r.uint64()), 'g', -1, 64)})
		default:
			cells = append(cells, TextCell{Text: r.lenencString()})
		}
	}
	if !r.ok() || r.remaining() != 0 {
		return nil, fmt.Errorf("wire: malformed binary row")
	}
	return cells, nil
}

// EncodeStmtExecute renders a COM_STMT_EXECUTE packet binding args by
// their value kinds (null bitmap at offset 0, new-params-bound flag
// set, one type pair per parameter).
func EncodeStmtExecute(stmtID uint32, args []value.Value) []byte {
	b := []byte{ComStmtExecute}
	b = appendUint32(b, stmtID)
	b = append(b, 0)       // flags: CURSOR_TYPE_NO_CURSOR
	b = appendUint32(b, 1) // iteration count
	if len(args) == 0 {
		return b
	}
	bitmap := make([]byte, (len(args)+7)/8)
	for i, v := range args {
		if v.IsNull() {
			bitmap[i/8] |= 1 << uint(i%8)
		}
	}
	b = append(b, bitmap...)
	b = append(b, 1) // new-params-bound
	for _, v := range args {
		b = append(b, paramType(v), 0) // type, unsigned flag clear
	}
	for _, v := range args {
		if v.IsNull() {
			continue
		}
		switch paramType(v) {
		case TypeLonglong:
			b = appendUint64(b, uint64(v.I))
		case TypeDouble:
			b = appendUint64(b, floatBits(v.F))
		default:
			b = appendTextCell(b, v)
		}
	}
	return b
}

// paramType picks the binary wire type a value is bound with.
func paramType(v value.Value) byte {
	switch v.K {
	case value.Null:
		return TypeNull
	case value.Int, value.Bool, value.Time:
		return TypeLonglong
	case value.Float:
		return TypeDouble
	default:
		return TypeVarString
	}
}

// ParseStmtExecuteParams decodes the parameter section of a
// COM_STMT_EXECUTE payload (positioned after the 10-byte fixed
// prefix). prevTypes carries the types from the statement's last
// execution, reused when the new-params-bound flag is clear; the
// returned types are what the caller should remember for next time.
func ParseStmtExecuteParams(p []byte, paramCount int, prevTypes []byte) ([]value.Value, []byte, error) {
	if paramCount == 0 {
		return nil, prevTypes, nil
	}
	r := newReader(p)
	bitmap := r.bytes((paramCount + 7) / 8)
	if bitmap == nil {
		return nil, nil, fmt.Errorf("wire: execute packet shorter than its null bitmap")
	}
	types := prevTypes
	if newBound := r.uint8(); newBound == 1 {
		types = make([]byte, paramCount)
		for i := 0; i < paramCount; i++ {
			types[i] = r.uint8()
			r.skip(1) // unsigned flag
		}
	} else if len(types) != paramCount {
		return nil, nil, fmt.Errorf("wire: execute without bound parameter types")
	}
	if !r.ok() {
		return nil, nil, fmt.Errorf("wire: malformed execute parameter types")
	}
	args := make([]value.Value, paramCount)
	for i := 0; i < paramCount; i++ {
		if bitmap[i/8]&(1<<uint(i%8)) != 0 {
			args[i] = value.NewNull()
			continue
		}
		switch types[i] {
		case TypeNull:
			args[i] = value.NewNull()
		case TypeTiny:
			args[i] = value.NewInt(int64(int8(r.uint8())))
		case TypeShort:
			args[i] = value.NewInt(int64(int16(r.uint16())))
		case TypeLong:
			args[i] = value.NewInt(int64(int32(r.uint32())))
		case TypeLonglong:
			args[i] = value.NewInt(int64(r.uint64()))
		case TypeFloat:
			args[i] = value.NewFloat(float64(float32FromBits(r.uint32())))
		case TypeDouble:
			args[i] = value.NewFloat(floatFromBits(r.uint64()))
		case TypeVarchar, TypeVarString, TypeString:
			args[i] = value.NewString(r.lenencString())
		default:
			return nil, nil, fmt.Errorf("wire: unsupported parameter type 0x%02x", types[i])
		}
	}
	if !r.ok() {
		return nil, nil, fmt.Errorf("wire: malformed execute parameter values")
	}
	return args, types, nil
}
