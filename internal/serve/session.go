package serve

import (
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"time"

	"autoindex/internal/engine"
	"autoindex/internal/sqlparser"
	"autoindex/internal/value"
	"autoindex/internal/wire"
)

// session is one authenticated client connection bound to one tenant
// database. Statement errors are reported as ERR packets and keep the
// session alive; protocol or I/O errors tear it down.
//
// Handlers only queue response packets (writeOK, writeErr, writeResultset,
// the prepare reply); run flushes once per turn, so no handler can forget
// to and a reply of hundreds of row packets is not a write each.
type session struct {
	srv  *Server
	conn *wire.Conn
	id   uint32

	db     *engine.Database
	dbName string
	bucket *tokenBucket

	stmts    map[uint32]*preparedStmt
	nextStmt uint32
	// pending counts captured statements since the last capture batch.
	pending int
	// buf is the payload every column definition and row is encoded into;
	// QueuePacket has copied it out by the time it is overwritten.
	buf []byte
}

type preparedStmt struct {
	text       string
	paramCount int
	types      []byte // parameter types remembered across executions
}

// errClientGone marks I/O or protocol failures that end the session.
var errClientGone = errors.New("serve: session ended")

func (s *session) run() {
	defer s.conn.Close()
	defer s.flushPending()
	turn := s.handshake
	for {
		err := turn()
		// The one flush of every response, the farewell ERR of a session
		// that is ending included.
		if s.conn.Flush() != nil || err != nil {
			return
		}
		turn = s.command
	}
}

// command reads one command packet and queues its response; a non-nil
// return ends the session.
func (s *session) command() error {
	select {
	case <-s.srv.done:
		_ = s.writeErr(wire.CodeServerShutdown, "server shutting down")
		return errClientGone
	default:
	}
	s.conn.ResetSeq()
	_ = s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.ReadTimeout))
	p, err := s.conn.ReadPacket()
	if errors.Is(err, wire.ErrPacketTooLarge) {
		return s.writeErr(wire.CodePacketTooLarge, "packet bigger than max_allowed_packet")
	}
	if err != nil {
		return err
	}
	if len(p) == 0 {
		_ = s.writeErr(wire.CodeMalformedPacket, "empty command packet")
		return errClientGone
	}
	return s.dispatch(p)
}

// dispatch routes one command packet; a non-nil return ends the session.
func (s *session) dispatch(p []byte) error {
	switch p[0] {
	case wire.ComQuit:
		return errClientGone
	case wire.ComPing:
		return s.writeOK(wire.OK{})
	case wire.ComInitDB:
		return s.initDB(string(p[1:]))
	case wire.ComQuery:
		return s.execQuery(string(p[1:]), false)
	case wire.ComStmtPrepare:
		return s.stmtPrepare(string(p[1:]))
	case wire.ComStmtExecute:
		return s.stmtExecute(p)
	case wire.ComStmtClose:
		// No response, per protocol.
		r := wire.NewPayloadReader(p[1:])
		delete(s.stmts, r.ReadUint32())
		return nil
	default:
		return s.writeErr(wire.CodeUnknownCommand, fmt.Sprintf("unknown command 0x%02x", p[0]))
	}
}

// handshake runs the greeting/auth exchange and selects the database.
// The greeting is a turn of its own and is sent at once; the verdict is
// queued like any response.
func (s *session) handshake() error {
	seed := make([]byte, 20)
	if _, err := rand.Read(seed); err != nil {
		return err
	}
	hs := wire.Handshake{
		ServerVersion: s.srv.cfg.ServerVersion,
		ConnID:        s.id,
		Seed:          seed,
		Capabilities:  wire.ServerCaps(),
	}
	_ = s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.ReadTimeout))
	if err := s.conn.WritePacket(wire.EncodeHandshake(hs)); err != nil {
		return err
	}
	p, err := s.conn.ReadPacket()
	if err != nil {
		return err
	}
	resp, err := wire.ParseHandshakeResponse(p)
	if err != nil {
		_ = s.writeErr(wire.CodeMalformedPacket, err.Error())
		return err
	}
	if !wire.CheckNative(s.srv.cfg.Password, seed, resp.AuthResponse) {
		_ = s.writeErr(wire.CodeAccessDenied, fmt.Sprintf("access denied for user %q", resp.User))
		return errClientGone
	}
	if resp.Database != "" {
		if !s.selectDB(resp.Database) {
			_ = s.writeErr(wire.CodeUnknownDB, fmt.Sprintf("unknown database %q", resp.Database))
			return errClientGone
		}
	}
	return s.writeOK(wire.OK{})
}

func (s *session) selectDB(name string) bool {
	db, ok := s.srv.cfg.Lookup(name)
	if !ok {
		return false
	}
	s.db = db
	s.dbName = name
	s.bucket = s.srv.bucketFor(name)
	return true
}

func (s *session) initDB(name string) error {
	if !s.selectDB(name) {
		return s.writeErr(wire.CodeUnknownDB, fmt.Sprintf("unknown database %q", name))
	}
	return s.writeOK(wire.OK{})
}

// execute runs one statement through the engine with admission
// backpressure and live capture, returning the engine result or having
// already written an ERR packet (res == nil, err == session fate).
func (s *session) execute(sql string) (*engine.Result, error) {
	if s.db == nil {
		return nil, s.writeErr(wire.CodeNoDatabase, "no database selected")
	}
	if wait := s.bucket.reserve(time.Now()); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-s.srv.done:
			t.Stop()
			return nil, s.writeErr(wire.CodeServerShutdown, "server shutting down")
		}
		s.srv.cfg.Metrics.Histogram(DescBackpressureWaitMillis).Observe(wait.Milliseconds())
	}
	res, err := s.db.ExecWith(sql, engine.ExecOptions{LiveCapture: true})
	if err != nil {
		return nil, s.writeErr(errToCode(err), err.Error())
	}
	s.srv.cfg.Metrics.Counter(DescStatements).Inc()
	if res.Plan != nil {
		s.srv.capture.note(res.Plan.QueryHash)
		s.pending++
		if s.pending >= s.srv.cfg.CaptureBatch {
			s.flushPending()
		}
	}
	return res, nil
}

func (s *session) flushPending() {
	if s.pending == 0 {
		return
	}
	s.pending = 0
	s.srv.capture.batch()
	s.srv.cfg.Metrics.Counter(DescCaptureBatches).Inc()
}

// execQuery runs a statement and writes its resultset (textual for
// COM_QUERY, binary for COM_STMT_EXECUTE).
func (s *session) execQuery(sql string, binary bool) error {
	res, err := s.execute(sql)
	if res == nil {
		return err
	}
	if res.Columns == nil {
		return s.writeOK(wire.OK{AffectedRows: uint64(res.RowsAffected)})
	}
	return s.writeResultset(res, binary)
}

// writeResultset encodes column definitions and rows, EOF-delimited.
func (s *session) writeResultset(res *engine.Result, binary bool) error {
	cols := s.columnDefs(res)
	if err := s.conn.QueuePacket(wire.AppendLenencInt(s.buf[:0], uint64(len(cols)))); err != nil {
		return err
	}
	if err := s.writeColumns(cols); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if binary {
			s.buf = wire.AppendBinaryRow(s.buf[:0], cols, row)
		} else {
			s.buf = wire.AppendTextRow(s.buf[:0], row)
		}
		if err := s.conn.QueuePacket(s.buf); err != nil {
			return err
		}
	}
	return s.conn.QueuePacket(wire.EncodeEOF())
}

// writeColumns queues a block of column definitions and its EOF.
func (s *session) writeColumns(cols []wire.Column) error {
	for _, c := range cols {
		s.buf = wire.AppendColumn(s.buf[:0], c)
		if err := s.conn.QueuePacket(s.buf); err != nil {
			return err
		}
	}
	return s.conn.QueuePacket(wire.EncodeEOF())
}

// columnDefs derives wire column types from the result's values: a
// column is LONGLONG if every non-NULL cell is integer-kinded, DOUBLE
// if numeric with at least one float, VAR_STRING otherwise. Scanning
// all rows (not just the first) keeps the binary encoding sound.
func (s *session) columnDefs(res *engine.Result) []wire.Column {
	cols := make([]wire.Column, len(res.Columns))
	for i, name := range res.Columns {
		typ := byte(0)
		for _, row := range res.Rows {
			if i >= len(row) || row[i].IsNull() {
				continue
			}
			t := wire.TypeForKind(row[i].K)
			switch {
			case typ == 0:
				typ = t
			case typ == t:
			case (typ == wire.TypeLonglong && t == wire.TypeDouble) ||
				(typ == wire.TypeDouble && t == wire.TypeLonglong):
				typ = wire.TypeDouble
			default:
				typ = wire.TypeVarString
			}
		}
		if typ == 0 {
			typ = wire.TypeVarString
		}
		cols[i] = wire.Column{Schema: s.dbName, Name: name, Type: typ}
	}
	return cols
}

// stmtPrepare registers a `?`-placeholder statement. The engine has no
// placeholder support, so the text is validated by substituting a
// neutral literal and parsing; real arguments are substituted as SQL
// literals at execute time.
func (s *session) stmtPrepare(sql string) error {
	if s.db == nil {
		return s.writeErr(wire.CodeNoDatabase, "no database selected")
	}
	n := countPlaceholders(sql)
	probe, err := substitutePlaceholders(sql, probeArgs(n))
	if err == nil {
		_, err = sqlparser.Parse(probe)
	}
	if err != nil {
		return s.writeErr(wire.CodeParse, err.Error())
	}
	s.nextStmt++
	id := s.nextStmt
	s.stmts[id] = &preparedStmt{text: sql, paramCount: n}
	resp := []byte{0x00}
	resp = wire.AppendUint32(resp, id)
	resp = wire.AppendUint16(resp, 0)         // column count (unknown until execute)
	resp = wire.AppendUint16(resp, uint16(n)) // param count
	resp = append(resp, 0)                    // filler
	resp = wire.AppendUint16(resp, 0)         // warnings
	if err := s.conn.QueuePacket(resp); err != nil || n == 0 {
		return err
	}
	params := make([]wire.Column, n)
	for i := range params {
		params[i] = wire.Column{Schema: s.dbName, Name: "?", Type: wire.TypeVarString}
	}
	return s.writeColumns(params)
}

func (s *session) stmtExecute(p []byte) error {
	r := wire.NewPayloadReader(p[1:])
	id := r.ReadUint32()
	r.Skip(5) // flags + iteration count
	st := s.stmts[id]
	if st == nil {
		return s.writeErr(wire.CodeUnknownStmt, fmt.Sprintf("unknown prepared statement %d", id))
	}
	args, types, err := wire.ParseStmtExecuteParams(r.Rest(), st.paramCount, st.types)
	if err != nil {
		return s.writeErr(wire.CodeMalformedPacket, err.Error())
	}
	st.types = types
	sql, err := substitutePlaceholders(st.text, args)
	if err != nil {
		return s.writeErr(wire.CodeMalformedPacket, err.Error())
	}
	return s.execQuery(sql, true)
}

// nudge interrupts a blocked command read so drain completes promptly.
func (s *session) nudge() { _ = s.conn.SetReadDeadline(time.Now()) }

func (s *session) writeOK(ok wire.OK) error {
	return s.conn.QueuePacket(wire.EncodeOK(ok))
}

func (s *session) writeErr(code uint16, msg string) error {
	return s.conn.QueuePacket(wire.EncodeErr(code, msg))
}

// errToCode maps engine sentinel errors to wire error codes.
func errToCode(err error) uint16 {
	switch {
	case errors.Is(err, engine.ErrIndexExists):
		return wire.CodeDupIndex
	case errors.Is(err, engine.ErrIndexNotFound):
		return wire.CodeIndexNotFound
	case errors.Is(err, engine.ErrTableNotFound):
		return wire.CodeTableNotFound
	case errors.Is(err, engine.ErrColumnInUse):
		return wire.CodeColumnInUse
	case errors.Is(err, engine.ErrLockTimeout):
		return wire.CodeLockWait
	case errors.Is(err, engine.ErrLogFull):
		return wire.CodeDiskFull
	case errors.Is(err, engine.ErrBuildAborted):
		return wire.CodeQueryInterrupted
	//lint:ignore errcompare sqlparser has no sentinel; its errors are identified by the package prefix
	case strings.HasPrefix(err.Error(), "sqlparser:"):
		return wire.CodeParse
	//lint:ignore errcompare unknown-table errors have no sentinel across the engine/optimizer layers
	case strings.Contains(err.Error(), "unknown table"):
		return wire.CodeTableNotFound
	default:
		return wire.CodeUnknownError
	}
}

// countPlaceholders counts `?` outside single-quoted literals.
func countPlaceholders(sql string) int {
	n := 0
	inQuote := false
	for i := 0; i < len(sql); i++ {
		switch {
		case sql[i] == '\'':
			inQuote = !inQuote
		case sql[i] == '?' && !inQuote:
			n++
		}
	}
	return n
}

// probeArgs builds neutral literals for prepare-time validation.
func probeArgs(n int) []value.Value {
	out := make([]value.Value, n)
	for i := range out {
		out[i] = value.NewInt(0)
	}
	return out
}

// substitutePlaceholders replaces each `?` outside quotes with the
// corresponding argument rendered as a SQL literal.
func substitutePlaceholders(sql string, args []value.Value) (string, error) {
	var b strings.Builder
	b.Grow(len(sql) + 16*len(args))
	next := 0
	inQuote := false
	for i := 0; i < len(sql); i++ {
		c := sql[i]
		switch {
		case c == '\'':
			inQuote = !inQuote
			b.WriteByte(c)
		case c == '?' && !inQuote:
			if next >= len(args) {
				return "", fmt.Errorf("serve: statement has more placeholders than arguments")
			}
			b.WriteString(args[next].String())
			next++
		default:
			b.WriteByte(c)
		}
	}
	if next != len(args) {
		return "", fmt.Errorf("serve: statement wants %d arguments, got %d", next, len(args))
	}
	return b.String(), nil
}
