package snap

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"autoindex/internal/value"
)

func open(t *testing.T, w *Writer) *Reader {
	t.Helper()
	r, err := Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPrimitivesRoundTrip(t *testing.T) {
	uvarints := []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64}
	varints := []int64{0, -1, 1, 63, -64, 64, math.MinInt64, math.MaxInt64}
	ints := []int{0, -1, math.MinInt, math.MaxInt}
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	floats := []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1), nanPayload}
	strs := []string{"", "a", "naïve ✓", strings.Repeat("x", 70_000)}
	values := []value.Value{
		value.NewNull(), value.NewInt(-42), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(nanPayload),
		value.NewString(""), value.NewString("héllo"), value.NewBool(true), value.NewBool(false),
		value.NewTime(time.Unix(1_700_000_000, 123).UTC()),
	}

	var w Writer
	for _, v := range uvarints {
		w.Uvarint(v)
	}
	for _, v := range varints {
		w.Varint(v)
	}
	for _, v := range ints {
		w.Int(v)
	}
	w.Bool(true)
	w.Bool(false)
	for _, v := range floats {
		w.Float(v)
	}
	for _, v := range strs {
		w.String(v)
	}
	for _, v := range values {
		w.Value(v)
	}
	w.Row(values)
	w.Row(nil)

	r := open(t, &w)
	for _, want := range uvarints {
		if got := r.Uvarint(); got != want {
			t.Errorf("uvarint %d read back as %d", want, got)
		}
	}
	for _, want := range varints {
		if got := r.Varint(); got != want {
			t.Errorf("varint %d read back as %d", want, got)
		}
	}
	for _, want := range ints {
		if got := r.Int(); got != want {
			t.Errorf("int %d read back as %d", want, got)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("bools read back wrong")
	}
	for _, want := range floats {
		if got := r.Float(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("float bits %#x read back as %#x", math.Float64bits(want), math.Float64bits(got))
		}
	}
	for _, want := range strs {
		if got := r.String(); got != want {
			t.Errorf("string of %d bytes read back as %d bytes", len(want), len(got))
		}
	}
	sameValue := func(a, b value.Value) bool {
		return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	seen := map[value.Kind]bool{}
	for _, want := range values {
		seen[want.K] = true
		if got := r.Value(); !sameValue(got, want) {
			t.Errorf("value %+v read back as %+v", want, got)
		}
	}
	for k := value.Null; k <= value.Time; k++ {
		if !seen[k] {
			t.Errorf("no round trip covers value kind %d", k)
		}
	}
	row := r.Row()
	if len(row) != len(values) {
		t.Fatalf("row of %d read back with %d", len(values), len(row))
	}
	for i := range row {
		if !sameValue(row[i], values[i]) {
			t.Errorf("row[%d] %+v read back as %+v", i, values[i], row[i])
		}
	}
	if empty := r.Row(); len(empty) != 0 {
		t.Errorf("empty row read back with %d values", len(empty))
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestEnvelopeRejections(t *testing.T) {
	var w Writer
	w.String("payload")
	w.Varint(-7)
	good := w.Seal()
	if _, err := Open(good); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	cases := map[string][]byte{
		"empty":            {},
		"short":            good[:len(Magic)],
		"bad magic":        mutate(func(b []byte) []byte { b[0] = 'Z'; return b }),
		"version":          mutate(func(b []byte) []byte { b[len(Magic)] = Version + 1; return b }),
		"no length":        good[:len(Magic)+1],
		"no checksum":      good[:len(Magic)+2+3],
		"length too long":  mutate(func(b []byte) []byte { b[len(Magic)+1]++; return b }),
		"length too short": mutate(func(b []byte) []byte { b[len(Magic)+1]--; return b }),
		"truncated body":   good[:len(good)-1],
		"extended body":    append(append([]byte(nil), good...), 0),
		"checksum flip":    mutate(func(b []byte) []byte { b[len(Magic)+2] ^= 0x10; return b }),
		"body flip":        mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }),
	}
	for name, data := range cases {
		if _, err := Open(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}

	r := open(t, &w)
	_ = r.String()
	if err := r.Done(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unread bytes: want ErrCorrupt from Done, got %v", err)
	}
	if r.Err() != nil {
		t.Errorf("Done must not latch: Err() = %v", r.Err())
	}
}

func TestReaderRejectsMalformedScalars(t *testing.T) {
	cases := map[string]struct {
		body []byte
		read func(r *Reader)
	}{
		"bool byte 2":          {[]byte{2}, func(r *Reader) { r.Bool() }},
		"truncated bool":       {nil, func(r *Reader) { r.Bool() }},
		"truncated float":      {[]byte{1, 2, 3}, func(r *Reader) { r.Float() }},
		"unterminated uvarint": {[]byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }},
		"overlong varint":      {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Varint() }},
		"string past the end":  {[]byte{5, 'a', 'b'}, func(r *Reader) { _ = r.String() }},
		"unknown value kind":   {[]byte{byte(value.Time) + 1}, func(r *Reader) { r.Value() }},
		"truncated value":      {[]byte{byte(value.Float), 0}, func(r *Reader) { r.Value() }},
		"uint above MaxInt":    {bytes.Repeat([]byte{0xff}, 9), func(r *Reader) { r.Uint() }},
	}
	for name, tc := range cases {
		r := NewBodyReader(tc.body)
		tc.read(r)
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, r.Err())
		}
	}
	// Uint is a scalar, not a count: it may exceed the remaining input.
	if got := NewBodyReader([]byte{112}).Uint(); got != 112 {
		t.Errorf("Uint read 112 as %d", got)
	}
}

func TestStickyError(t *testing.T) {
	var w Writer
	w.Uvarint(7)
	w.Bool(true)
	r := NewBodyReader(append(w.buf, 9, 1, 0x2a)) // bad bool, then readable bytes
	if r.Uvarint() != 7 || !r.Bool() || r.Err() != nil {
		t.Fatal("clean prefix misread")
	}
	r.Bool()
	first := r.Err()
	if !errors.Is(first, ErrCorrupt) {
		t.Fatalf("want the bad bool latched as ErrCorrupt, got %v", first)
	}
	if r.Bool() || r.Uvarint() != 0 || r.Varint() != 0 || r.Int() != 0 || r.Uint() != 0 || r.Float() != 0 ||
		r.String() != "" || r.Value() != (value.Value{}) || len(r.Row()) != 0 {
		t.Error("reads after a failure must yield zero values")
	}
	if n := r.Len(); n != 0 {
		t.Errorf("Len after a failure = %d, want 0 so loops end", n)
	}
	r.Failf("a later structural complaint")
	if r.Err() != first || r.Done() != first {
		t.Errorf("the first error must stay the one reported: Err %v, Done %v", r.Err(), r.Done())
	}
}

// A length prefix that promises more elements than there are bytes left
// must fail before anything is sized from it: were any of these reads to
// allocate 2^40 elements, the test binary would die rather than fail.
func TestLyingLengthNeverAllocates(t *testing.T) {
	var w Writer
	w.Uvarint(1 << 40)
	reads := map[string]func(c Codec){
		"Len":     func(c Codec) { c.r.Len() },
		"String":  func(c Codec) { _ = c.r.String() },
		"Row":     func(c Codec) { c.r.Row() },
		"Strings": func(c Codec) { var s []string; c.Strings(&s) },
		"Slice":   func(c Codec) { var s []int64; Slice(c, &s, Codec.Varint) },
		"Map": func(c Codec) {
			var m map[uint64]int64
			Map(c, &m, func(c Codec, k *uint64, v *int64) { c.Uvarint(k); c.Varint(v) })
		},
	}
	for name, read := range reads {
		r := NewBodyReader(w.buf)
		read(Decoder(r))
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt from the length guard, got %v", name, r.Err())
		}
	}
}

// record exercises every Codec method and helper in one walk.
type record struct {
	U     uint64
	V     int64
	I     int
	B     bool
	F     float64
	S     string
	Val   value.Value
	At    time.Time
	Kind  value.Kind
	Tags  []string
	Subs  []*record
	Ranks map[string]int64
	ByID  map[uint64]*record
}

func walkRecord(c Codec, rec *record) {
	c.Uvarint(&rec.U)
	c.Varint(&rec.V)
	c.Int(&rec.I)
	c.Bool(&rec.B)
	c.Float(&rec.F)
	c.String(&rec.S)
	c.Value(&rec.Val)
	c.Time(&rec.At)
	Enum(c, &rec.Kind, value.Time)
	c.Strings(&rec.Tags)
	Slice(c, &rec.Subs, func(c Codec, sub **record) { walkRecord(c, Ptr(c, sub)) })
	Map(c, &rec.Ranks, func(c Codec, k *string, v *int64) {
		c.String(k)
		c.Varint(v)
	})
	// Keyed by a field of the value: the key is not written on its own.
	Map(c, &rec.ByID, func(c Codec, id *uint64, sub **record) {
		walkRecord(c, Ptr(c, sub))
		*id = (*sub).U
	})
}

func sampleRecord() *record {
	leaf := func(u uint64, s string) *record {
		return &record{U: u, S: s, At: time.Unix(0, int64(u)).UTC(), Val: value.NewString(s)}
	}
	return &record{
		U: math.MaxUint64, V: math.MinInt64, I: -3, B: true, F: math.Copysign(0, -1), S: "root",
		Val: value.NewFloat(2.5), At: time.Unix(1_700_000_000, 5).UTC(), Kind: value.Bool,
		Tags:  []string{"b", "", "a"},
		Subs:  []*record{leaf(2, "two"), leaf(1, "one")},
		Ranks: map[string]int64{"zeta": 1, "alpha": -2, "mid": 3},
		ByID:  map[uint64]*record{9: leaf(9, "nine"), 4: leaf(4, "four"), 6: leaf(6, "six")},
	}
}

func TestCodecWalkIsItsOwnInverse(t *testing.T) {
	var first Writer
	walkRecord(Encoder(&first), sampleRecord())
	for i := 0; i < 20; i++ { // map order must never reach the bytes
		var again Writer
		walkRecord(Encoder(&again), sampleRecord())
		if !bytes.Equal(again.Seal(), first.Seal()) {
			t.Fatal("the same record encoded to different bytes")
		}
	}

	var got record
	r := open(t, &first)
	walkRecord(Decoder(r), &got)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if got.S != "root" || len(got.Subs) != 2 || got.Subs[0].S != "two" || got.Ranks["alpha"] != -2 ||
		got.ByID[6] == nil || got.ByID[6].S != "six" || got.Kind != value.Bool || !got.At.Equal(sampleRecord().At) {
		t.Fatalf("decoded record differs: %+v", got)
	}
	var second Writer
	walkRecord(Encoder(&second), &got)
	if !bytes.Equal(second.Seal(), first.Seal()) {
		t.Fatal("encode → decode → encode is not byte-identical")
	}
}

func TestCodecRejections(t *testing.T) {
	entry := func(c Codec, k *string, v *int64) {
		c.String(k)
		c.Varint(v)
	}
	var dup Writer
	dup.Uvarint(2)
	dup.String("id")
	dup.Varint(1)
	dup.String("id")
	dup.Varint(2)
	r := open(t, &dup)
	var m map[string]int64
	Map(Decoder(r), &m, entry)
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("repeated map key: want ErrCorrupt, got %v", err)
	}

	var high Writer
	high.Uvarint(uint64(value.Time) + 1)
	r = open(t, &high)
	var k value.Kind
	Enum(Decoder(r), &k, value.Time)
	if !errors.Is(r.Err(), ErrCorrupt) || k != 0 {
		t.Errorf("enum above its maximum: want ErrCorrupt and a zero value, got %v and %d", r.Err(), k)
	}
}
