package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"autoindex/internal/engine"
	"autoindex/internal/value"
	"autoindex/internal/wire"
)

// recordingListener hands the server connections that keep every Write
// it makes, so a test sees both the bytes of a response and how many
// writes carried them.
type recordingListener struct {
	net.Listener
	accepted chan *recordingConn
}

type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (l *recordingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	rc := &recordingConn{Conn: nc}
	l.accepted <- rc
	return rc, nil
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// take returns the writes made since the last call. The client has read
// a whole response by the time a test calls it, and a write is recorded
// before it is passed on, so the response is complete.
func (c *recordingConn) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.writes
	c.writes = nil
	return w
}

// recordedSession starts a server on a recording listener and dials one
// client; the handshake's writes are already taken.
func recordedSession(t *testing.T, db *engine.Database, maxPayload int) (*wire.Client, *recordingConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One connection is accepted per test; the slot keeps Accept from blocking.
	rl := &recordingListener{Listener: ln, accepted: make(chan *recordingConn, 1)}
	_, addr, _ := startServerOn(t, Config{Lookup: lookupOne(db), MaxPayload: maxPayload}, rl)
	cl, err := wire.DialMax(addr, "app", testPassword, "db000", maxPayload)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	rc := <-rl.accepted
	rc.take()
	return cl, rc
}

// framed is what the protocol says the response to a command of cmdLen
// bytes is: each packet's payload cut into frames at maxPayload (an exact
// multiple ends in an empty frame), sequence ids running on from the
// command's own frames.
func framed(cmdLen, maxPayload int, packets ...[]byte) []byte {
	var out []byte
	seq := byte(cmdLen/maxPayload + 1)
	frame := func(p []byte) {
		out = append(out, byte(len(p)), byte(len(p)>>8), byte(len(p)>>16), seq)
		out = append(out, p...)
		seq++
	}
	for _, p := range packets {
		for len(p) >= maxPayload {
			frame(p[:maxPayload])
			p = p[maxPayload:]
		}
		frame(p)
	}
	return out
}

// resultsetPackets is a result set as the per-packet encoders render it.
func resultsetPackets(cols []wire.Column, rows []value.Row, binary bool) [][]byte {
	packets := [][]byte{wire.AppendLenencInt(nil, uint64(len(cols)))}
	for _, c := range cols {
		packets = append(packets, wire.EncodeColumn(c))
	}
	packets = append(packets, wire.EncodeEOF())
	for _, row := range rows {
		if binary {
			packets = append(packets, wire.EncodeBinaryRow(cols, row))
		} else {
			packets = append(packets, wire.EncodeTextRow(row))
		}
	}
	return append(packets, wire.EncodeEOF())
}

// checkResponse compares what the server wrote since the last take with
// the framed packets; oneWrite also requires that it left in one Write.
func checkResponse(t *testing.T, what string, rc *recordingConn, cmdLen, maxPayload int, oneWrite bool, packets ...[]byte) {
	t.Helper()
	writes := rc.take()
	got := bytes.Join(writes, nil)
	if want := framed(cmdLen, maxPayload, packets...); !bytes.Equal(got, want) {
		t.Errorf("%s: server wrote\n%x\nwant\n%x", what, got, want)
	}
	if oneWrite && len(writes) != 1 {
		t.Errorf("%s: %d bytes left in %d writes, want 1", what, len(got), len(writes))
	}
}

// TestResponseBytesAndWrites pins the wire image of every kind of
// response to the per-packet encoders' output with consecutive sequence
// ids, and each response that fits the writer's buffer to one Write.
func TestResponseBytesAndWrites(t *testing.T) {
	db := newTestDB(t)
	cl, rc := recordedSession(t, db, 0)
	idCol := wire.Column{Schema: "db000", Name: "id", Type: wire.TypeLonglong}
	cols := []wire.Column{idCol,
		{Schema: "db000", Name: "status", Type: wire.TypeVarString},
		{Schema: "db000", Name: "amount", Type: wire.TypeDouble}}
	const query = "SELECT id, status, amount FROM orders WHERE customer_id = 2"
	rows, err := db.Exec(query)
	if err != nil || len(rows.Rows) != 4 {
		t.Fatalf("in-process rows = %v, err %v", rows, err)
	}

	if _, err := cl.Query("INSERT INTO orders (id, customer_id, status, amount, created) VALUES (500, 9, 'new', 1, 1)"); err != nil {
		t.Fatal(err)
	}
	checkResponse(t, "OK", rc, 0, wire.MaxPayload, true, wire.EncodeOK(wire.OK{AffectedRows: 1}))

	_, err = cl.Query("SELECT * FROM nope")
	var se *wire.SQLError
	if !errors.As(err, &se) {
		t.Fatalf("unknown table: err = %v", err)
	}
	checkResponse(t, "ERR", rc, 0, wire.MaxPayload, true, wire.EncodeErr(se.Code, se.Message))

	if _, err := cl.Query(query); err != nil {
		t.Fatal(err)
	}
	checkResponse(t, "text result set", rc, 0, wire.MaxPayload, true, resultsetPackets(cols, rows.Rows, false)...)

	st, err := cl.Prepare("SELECT id, status, amount FROM orders WHERE customer_id = ? AND id < ?")
	if err != nil {
		t.Fatal(err)
	}
	reply := wire.AppendUint32([]byte{0x00}, 1)               // statement id
	reply = wire.AppendUint16(wire.AppendUint16(reply, 0), 2) // columns, parameters
	reply = wire.AppendUint16(append(reply, 0), 0)            // filler, warnings
	param := wire.EncodeColumn(wire.Column{Schema: "db000", Name: "?", Type: wire.TypeVarString})
	checkResponse(t, "prepare reply", rc, 0, wire.MaxPayload, true, reply, param, param, wire.EncodeEOF())

	if _, err := st.Execute(int64(2), int64(100)); err != nil {
		t.Fatal(err)
	}
	checkResponse(t, "binary result set", rc, 0, wire.MaxPayload, true, resultsetPackets(cols, rows.Rows, true)...)
}

// TestSplitResponseBytes lowers the frame threshold so one result set
// holds row packets shorter than, equal to, and twice the threshold: the
// frames, the empty terminators and the sequence ids must come out as
// the protocol prescribes although the response is queued as a whole.
func TestSplitResponseBytes(t *testing.T) {
	const maxPayload = 32
	db := newTestDB(t)
	// A text row of one string cell is 1 + len bytes.
	for i, n := range []int{5, maxPayload - 1, 2*maxPayload - 1, 40} {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO orders (id, customer_id, status, amount, created) VALUES (%d, 77, '%s', 1, 1)", 600+i, strings.Repeat("x", n)))
	}
	const query = "SELECT status FROM orders WHERE customer_id = 77"
	rows, err := db.Exec(query)
	if err != nil || len(rows.Rows) != 4 {
		t.Fatalf("in-process rows = %v, err %v", rows, err)
	}
	cl, rc := recordedSession(t, db, maxPayload)
	res, err := cl.Query(query)
	if err != nil || len(res.Rows) != 4 || len(res.Rows[2][0].Text) != 2*maxPayload-1 {
		t.Fatalf("client rows = %+v, err %v", res, err)
	}
	cols := []wire.Column{{Schema: "db000", Name: "status", Type: wire.TypeVarString}}
	checkResponse(t, "split result set", rc, 1+len(query), maxPayload, false, resultsetPackets(cols, rows.Rows, false)...)
}

// TestTextAndPreparedAgree is the regression test for DATETIME columns:
// declared LONGLONG, a Time cell came back over COM_STMT_EXECUTE as its
// raw nanosecond count and over COM_QUERY as a datetime. Every cell of
// every kind, NULLs included, must read the same over both protocols.
func TestTextAndPreparedAgree(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, `CREATE TABLE ev (id BIGINT NOT NULL, n INT, f FLOAT, s VARCHAR, flag BIT, ts DATETIME, PRIMARY KEY (id))`)
	mustExec(t, db, `INSERT INTO ev (id, n, f, s, flag, ts) VALUES (1, -7, 2.5, 'a b', 1, 1700000000000000000)`)
	mustExec(t, db, `INSERT INTO ev (id, n, f, s, flag, ts) VALUES (2, NULL, NULL, NULL, NULL, NULL)`)
	mustExec(t, db, `INSERT INTO ev (id, n, f, s, flag, ts) VALUES (3, 0, 1234567.125, '', 0, 0)`)
	_, addr, _ := startServer(t, Config{Lookup: lookupOne(db)})
	cl, err := wire.Dial(addr, "app", testPassword, "db000")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	text, err := cl.Query("SELECT * FROM ev WHERE id >= 1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := cl.Prepare("SELECT * FROM ev WHERE id >= ?")
	if err != nil {
		t.Fatal(err)
	}
	prepared, err := st.Execute(int64(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(text.Rows) != 3 || len(prepared.Rows) != 3 {
		t.Fatalf("rows: text %d, prepared %d, want 3", len(text.Rows), len(prepared.Rows))
	}
	for i, row := range text.Rows {
		for j, cell := range row {
			if got := prepared.Rows[i][j]; got != cell {
				t.Errorf("row %d column %s: prepared %+v, text %+v", i, text.Columns[j], got, cell)
			}
		}
	}
	if got := text.Rows[0][5].Text; got != "2023-11-14 22:13:20" {
		t.Errorf("ts over text = %q, want the rendered datetime", got)
	}
	if !text.Rows[1][5].Null || !text.Rows[1][1].Null {
		t.Errorf("NULL cells over text = %+v", text.Rows[1])
	}
}
