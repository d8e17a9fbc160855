package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"

	"autoindex/internal/value"
)

// pipeConns returns two framed ends of an in-memory connection.
func pipeConns(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestPacketRoundTrip(t *testing.T) {
	c1, c2 := pipeConns(t)
	payloads := [][]byte{
		{},
		{0x01},
		bytes.Repeat([]byte{0xab}, 300),
	}
	done := make(chan error, 1)
	go func() {
		for _, p := range payloads {
			if err := c1.WritePacket(p); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i, want := range payloads {
		got, err := c2.ReadPacket()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("packet %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestPacketSplitFrames lowers the split threshold on both peers and
// checks payloads at, above and at exact multiples of the threshold.
func TestPacketSplitFrames(t *testing.T) {
	for _, size := range []int{63, 64, 65, 128, 129, 1000} {
		c1, c2 := pipeConns(t)
		c1.SetMaxPayload(64)
		c2.SetMaxPayload(64)
		want := bytes.Repeat([]byte{byte(size)}, size)
		done := make(chan error, 1)
		go func() { done <- c1.WritePacket(want) }()
		got, err := c2.ReadPacket()
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: payload mismatch (%d bytes back)", size, len(got))
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPacketSequenceEnforced(t *testing.T) {
	c1, c2 := pipeConns(t)
	done := make(chan error, 1)
	go func() {
		if err := c1.WritePacket([]byte{1}); err != nil {
			done <- err
			return
		}
		c1.ResetSeq() // desynchronize: peer expects seq 1 next
		done <- c1.WritePacket([]byte{2})
	}()
	if _, err := c2.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.ReadPacket(); err == nil {
		t.Fatal("expected out-of-order packet error")
	}
	<-done
}

// TestPacketTooLargeDrains checks an oversized packet errors but leaves
// the stream framed so the next packet still parses.
func TestPacketTooLargeDrains(t *testing.T) {
	c1, c2 := pipeConns(t)
	c1.SetMaxPayload(64)
	c2.SetMaxPayload(64)
	c2.SetMaxTotal(100)
	done := make(chan error, 1)
	go func() {
		if err := c1.WritePacket(bytes.Repeat([]byte{9}, 500)); err != nil {
			done <- err
			return
		}
		c1.ResetSeq()
		done <- c1.WritePacket([]byte{42})
	}()
	if _, err := c2.ReadPacket(); !errors.Is(err, ErrPacketTooLarge) {
		t.Fatalf("got %v, want ErrPacketTooLarge", err)
	}
	c2.ResetSeq()
	got, err := c2.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("stream desynchronized after oversized packet: %v", got)
	}
	<-done
}

func TestLenencIntRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 250, 251, 252, 1<<16 - 1, 1 << 16, 1<<24 - 1, 1 << 24, 1<<63 + 7} {
		b := appendLenencInt(nil, v)
		r := newReader(b)
		if got := r.lenencInt(); got != v || !r.ok() || r.remaining() != 0 {
			t.Fatalf("lenenc %d: got %d ok=%v rem=%d", v, got, r.ok(), r.remaining())
		}
	}
	// 0xfb and 0xff are not valid lenenc prefixes.
	for _, b := range [][]byte{{0xfb}, {0xff}} {
		r := newReader(b)
		r.lenencInt()
		if r.ok() {
			t.Fatalf("prefix 0x%02x should be rejected", b[0])
		}
	}
}

func TestScramble(t *testing.T) {
	seed := bytes.Repeat([]byte{0x5a}, seedLen)
	resp := ScrambleNative("secret", seed)
	if len(resp) != 20 {
		t.Fatalf("scramble length %d, want 20", len(resp))
	}
	if !CheckNative("secret", seed, resp) {
		t.Fatal("correct password rejected")
	}
	if CheckNative("wrong", seed, resp) {
		t.Fatal("wrong password accepted")
	}
	if got := ScrambleNative("", seed); got != nil {
		t.Fatalf("empty password should scramble to nil, got %v", got)
	}
	if !CheckNative("", seed, nil) {
		t.Fatal("empty password with empty response rejected")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	seed := bytes.Repeat([]byte{7}, seedLen)
	h := Handshake{ServerVersion: "8.0-autoindex", ConnID: 99, Seed: seed, Capabilities: serverCaps}
	got, err := ParseHandshake(EncodeHandshake(h))
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerVersion != h.ServerVersion || got.ConnID != h.ConnID ||
		got.Capabilities != h.Capabilities || !bytes.Equal(got.Seed, seed) {
		t.Fatalf("handshake round-trip mismatch: %+v", got)
	}
}

func TestHandshakeResponseRoundTrip(t *testing.T) {
	hr := HandshakeResponse{
		Capabilities: serverCaps,
		MaxPacket:    MaxPayload,
		User:         "app",
		AuthResponse: bytes.Repeat([]byte{3}, 20),
		Database:     "db007",
		Plugin:       AuthPluginNative,
	}
	got, err := ParseHandshakeResponse(EncodeHandshakeResponse(hr))
	if err != nil {
		t.Fatal(err)
	}
	if got.User != hr.User || got.Database != hr.Database || got.Plugin != hr.Plugin ||
		!bytes.Equal(got.AuthResponse, hr.AuthResponse) {
		t.Fatalf("handshake response round-trip mismatch: %+v", got)
	}
}

func TestOKErrEOFPackets(t *testing.T) {
	ok, err := ParseOK(EncodeOK(OK{AffectedRows: 7, Warnings: 2}))
	if err != nil || ok.AffectedRows != 7 || ok.Warnings != 2 {
		t.Fatalf("OK round-trip: %+v %v", ok, err)
	}
	e := ParseErr(EncodeErr(CodeTableNotFound, "no such table"))
	if e.Code != CodeTableNotFound || e.State != "42S02" || e.Message != "no such table" {
		t.Fatalf("ERR round-trip: %+v", e)
	}
	if !IsEOF(EncodeEOF()) || IsEOF(EncodeOK(OK{})) || IsEOF(appendUint64([]byte{0xfe}, 1)) {
		t.Fatal("EOF classification wrong")
	}
}

func TestColumnRoundTrip(t *testing.T) {
	c := Column{Schema: "db000", Table: "orders", Name: "amount", Type: TypeDouble}
	got, err := ParseColumn(EncodeColumn(c))
	if err != nil {
		t.Fatal(err)
	}
	if *got != c {
		t.Fatalf("column round-trip: got %+v want %+v", *got, c)
	}
}

func TestTextRowRoundTrip(t *testing.T) {
	row := []value.Value{
		value.NewInt(-42),
		value.NewNull(),
		value.NewString("it's"),
		value.NewFloat(2.5),
		value.NewBool(true),
	}
	cells, err := ParseTextRow(EncodeTextRow(row), len(row))
	if err != nil {
		t.Fatal(err)
	}
	want := []TextCell{{Text: "-42"}, {Null: true}, {Text: "it's"}, {Text: "2.5"}, {Text: "1"}}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("text row: got %v want %v", cells, want)
	}
}

// TestAppendRowsIntoUsedBuffer encodes the way a session does, after
// bytes already in the buffer: the appended payload must be the one the
// Encode wrappers produce, whatever precedes it (the binary row's null
// bitmap and the text cell's length byte are patched in by offset). A
// string of 300 bytes needs the three-byte length prefix, a Time renders
// as a datetime in both encodings.
func TestAppendRowsIntoUsedBuffer(t *testing.T) {
	row := []value.Value{
		value.NewNull(),
		value.NewInt(-42),
		value.NewString(strings.Repeat("s", 300)),
		value.NewFloat(2.5),
		value.NewBool(false),
		value.Value{K: value.Time, I: 1700000000000000000},
		value.NewNull(),
	}
	cols := []Column{{Type: TypeVarString}, {Type: TypeLonglong}, {Type: TypeVarString}, {Type: TypeDouble},
		{Type: TypeLonglong}, {Type: TypeForKind(value.Time)}, {Type: TypeLonglong}}
	prefix := []byte("already queued")
	if got := AppendTextRow(prefix, row)[len(prefix):]; !bytes.Equal(got, EncodeTextRow(row)) {
		t.Fatalf("AppendTextRow after a prefix = %x, alone %x", got, EncodeTextRow(row))
	}
	if got := AppendBinaryRow(prefix, cols, row)[len(prefix):]; !bytes.Equal(got, EncodeBinaryRow(cols, row)) {
		t.Fatalf("AppendBinaryRow after a prefix = %x, alone %x", got, EncodeBinaryRow(cols, row))
	}
	text, err := ParseTextRow(EncodeTextRow(row), len(row))
	if err != nil {
		t.Fatal(err)
	}
	binary, err := ParseBinaryRow(EncodeBinaryRow(cols, row), cols)
	if err != nil {
		t.Fatal(err)
	}
	if text[5].Text != "2023-11-14 22:13:20" || binary[5] != text[5] || len(text[2].Text) != 300 || !text[6].Null {
		t.Fatalf("decoded text %v binary %v", text, binary)
	}
}

func TestBinaryRowRoundTrip(t *testing.T) {
	cols := []Column{
		{Name: "a", Type: TypeLonglong},
		{Name: "b", Type: TypeDouble},
		{Name: "c", Type: TypeVarString},
		{Name: "d", Type: TypeLonglong},
	}
	row := []value.Value{
		value.NewInt(1 << 40),
		value.NewFloat(-0.125),
		value.NewString("x"),
		value.NewNull(),
	}
	cells, err := ParseBinaryRow(EncodeBinaryRow(cols, row), cols)
	if err != nil {
		t.Fatal(err)
	}
	want := []TextCell{{Text: "1099511627776"}, {Text: "-0.125"}, {Text: "x"}, {Null: true}}
	if !reflect.DeepEqual(cells, want) {
		t.Fatalf("binary row: got %v want %v", cells, want)
	}
}

func TestStmtExecuteParamsRoundTrip(t *testing.T) {
	args := []value.Value{
		value.NewInt(123),
		value.NewString("abc"),
		value.NewNull(),
		value.NewFloat(9.75),
	}
	p := EncodeStmtExecute(77, args)
	r := newReader(p)
	if r.uint8() != ComStmtExecute {
		t.Fatal("bad command byte")
	}
	if id := r.uint32(); id != 77 {
		t.Fatalf("stmt id %d", id)
	}
	r.skip(5) // flags + iteration count
	got, types, err := ParseStmtExecuteParams(r.rest(), len(args), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, args) {
		t.Fatalf("params: got %v want %v", got, args)
	}
	if len(types) != len(args) {
		t.Fatalf("types: %v", types)
	}
	// Re-execute with new-params-bound clear must reuse remembered types.
	if _, _, err := ParseStmtExecuteParams(nil, 1, nil); err == nil {
		t.Fatal("execute without types should fail")
	}
}
