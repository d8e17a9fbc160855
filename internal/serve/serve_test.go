package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"autoindex/internal/engine"
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/wire"
)

const testPassword = "secret"

// newTestDB builds a small orders database directly through the engine
// (no workload generator), so tests know exactly what data the server
// holds.
func newTestDB(t testing.TB) *engine.Database {
	t.Helper()
	db := engine.New(engine.DefaultConfig("db000", engine.TierStandard, 1), sim.NewClock())
	mustExec(t, db, `CREATE TABLE orders (id BIGINT NOT NULL, customer_id BIGINT, status VARCHAR, amount FLOAT, created BIGINT, PRIMARY KEY (id))`)
	statuses := []string{"new", "paid", "shipped"}
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(
			"INSERT INTO orders (id, customer_id, status, amount, created) VALUES (%d, %d, '%s', %g, %d)",
			i, i%5, statuses[i%3], float64(i)*2.5, 1000+i))
	}
	return db
}

func mustExec(t testing.TB, db *engine.Database, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

// startServer runs a Server on an ephemeral port and tears it down with
// the test. The returned registry is the one receiving serve.* metrics.
func startServer(t testing.TB, cfg Config) (*Server, string, *metrics.Registry) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startServerOn(t, cfg, ln)
}

// startServerOn is startServer on a listener the test supplies.
func startServerOn(t testing.TB, cfg Config, ln net.Listener) (*Server, string, *metrics.Registry) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Password == "" {
		cfg.Password = testPassword
	}
	srv := New(cfg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := srv.Serve(ln); err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-done
	})
	return srv, ln.Addr().String(), cfg.Metrics
}

func lookupOne(db *engine.Database) func(string) (*engine.Database, bool) {
	return func(name string) (*engine.Database, bool) {
		if name == db.Name() {
			return db, true
		}
		return nil, false
	}
}

// sqlErrCode unwraps the server error code from a client-side error.
func sqlErrCode(err error) uint16 {
	var se *wire.SQLError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAdHocQueryAndLiveCapture(t *testing.T) {
	db := newTestDB(t)
	totalBefore, liveBefore := db.QueryStore().ExecutionTotals()
	if liveBefore != 0 {
		t.Fatalf("setup statements must not count as live, got %d", liveBefore)
	}
	_, addr, reg := startServer(t, Config{Lookup: lookupOne(db)})

	cl, err := wire.Dial(addr, "app", testPassword, "db000")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Query("SELECT id, status FROM orders WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "id" || res.Columns[1] != "status" {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text != "3" || res.Rows[0][1].Text != "new" {
		t.Fatalf("rows = %+v", res.Rows)
	}

	res, err = cl.Query("SELECT count(*) FROM orders WHERE customer_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text != "4" {
		t.Fatalf("count rows = %+v", res.Rows)
	}

	res, err = cl.Query("INSERT INTO orders (id, customer_id, status, amount, created) VALUES (100, 9, 'new', 1.5, 2000)")
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedRows != 1 || res.Columns != nil {
		t.Fatalf("insert result = %+v", res)
	}
	res, err = cl.Query("SELECT id FROM orders WHERE customer_id = 9")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Text != "100" {
		t.Fatalf("post-insert rows = %+v", res.Rows)
	}

	total, live := db.QueryStore().ExecutionTotals()
	if live == 0 {
		t.Fatal("wire statements were not captured as live")
	}
	if total-totalBefore != live {
		t.Fatalf("all new executions should be live: total delta %d, live %d", total-totalBefore, live)
	}
	if got := reg.Counter(DescStatements).Value(); got < 4 {
		t.Fatalf("serve.stmts = %d, want >= 4", got)
	}
	if got := reg.Counter(DescConnections).Value(); got != 1 {
		t.Fatalf("serve.connections = %d, want 1", got)
	}
}

func TestPreparedStatements(t *testing.T) {
	db := newTestDB(t)
	_, addr, _ := startServer(t, Config{Lookup: lookupOne(db)})

	cl, err := wire.Dial(addr, "app", testPassword, "db000")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := cl.Prepare("SELECT id, amount FROM orders WHERE customer_id = ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Execute(int64(2))
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"2", "7", "12", "17"}
	if len(res.Rows) != len(wantIDs) {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for i, want := range wantIDs {
		if res.Rows[i][0].Text != want {
			t.Fatalf("row %d id = %q, want %q", i, res.Rows[i][0].Text, want)
		}
	}
	// Binary doubles come back rendered; row for id=2 has amount 5.
	if res.Rows[0][1].Text != "5" {
		t.Fatalf("amount = %q, want 5", res.Rows[0][1].Text)
	}

	// Re-execute with a different argument: same statement, new params.
	res, err = st.Execute(int64(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][0].Text != "4" {
		t.Fatalf("re-execute rows = %+v", res.Rows)
	}

	// String and float parameters substitute as SQL literals.
	st2, err := cl.Prepare("SELECT id FROM orders WHERE status = ? AND amount > ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err = st2.Execute("paid", 40.0)
	if err != nil {
		t.Fatal(err)
	}
	// status=paid: ids 1,4,7,10,13,16,19; amount>40: ids 17..: so 19 only.
	if len(res.Rows) != 1 || res.Rows[0][0].Text != "19" {
		t.Fatalf("param rows = %+v", res.Rows)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Prepare-time validation catches garbage.
	if _, err := cl.Prepare("SELEC id FROM orders"); sqlErrCode(err) != wire.CodeParse {
		t.Fatalf("prepare garbage: err = %v, want code %d", err, wire.CodeParse)
	}
	// The session must still be usable after the error.
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	db := newTestDB(t)
	srv, addr, reg := startServer(t, Config{Lookup: lookupOne(db), CaptureBatch: 8})

	const conns, perConn = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(addr, "app", testPassword, "db000")
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			st, err := cl.Prepare("SELECT id FROM orders WHERE customer_id = ?")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perConn; i++ {
				if i%2 == 0 {
					res, err := cl.Query(fmt.Sprintf("SELECT status FROM orders WHERE id = %d", i%20))
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 1 {
						errs <- fmt.Errorf("conn %d stmt %d: %d rows", c, i, len(res.Rows))
						return
					}
				} else {
					res, err := st.Execute(int64(i % 5))
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 4 {
						errs <- fmt.Errorf("conn %d prepared %d: %d rows", c, i, len(res.Rows))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := reg.Counter(DescStatements).Value(); got != conns*perConn {
		t.Fatalf("serve.stmts = %d, want %d", got, conns*perConn)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.ActiveSessions() == 0 }, "sessions to drain")
	stats := srv.CaptureStats()
	if stats.Statements != conns*perConn {
		t.Fatalf("captured statements = %d, want %d", stats.Statements, conns*perConn)
	}
	if stats.Batches == 0 || stats.DistinctQueries == 0 {
		t.Fatalf("capture stats = %+v", stats)
	}
	_, live := db.QueryStore().ExecutionTotals()
	if live != conns*perConn {
		t.Fatalf("live executions = %d, want %d", live, conns*perConn)
	}
}

func TestErrorMapping(t *testing.T) {
	db := newTestDB(t)
	_, addr, _ := startServer(t, Config{Lookup: lookupOne(db)})

	if _, err := wire.Dial(addr, "app", "wrong", "db000"); sqlErrCode(err) != wire.CodeAccessDenied {
		t.Fatalf("bad password: err = %v, want code %d", err, wire.CodeAccessDenied)
	}
	if _, err := wire.Dial(addr, "app", testPassword, "nope"); sqlErrCode(err) != wire.CodeUnknownDB {
		t.Fatalf("bad database: err = %v, want code %d", err, wire.CodeUnknownDB)
	}

	cl, err := wire.Dial(addr, "app", testPassword, "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query("SELECT 1 FROM orders"); sqlErrCode(err) != wire.CodeNoDatabase {
		t.Fatalf("no database: err = %v, want code %d", err, wire.CodeNoDatabase)
	}
	if err := cl.Use("db000"); err != nil {
		t.Fatalf("USE: %v", err)
	}
	if _, err := cl.Query("SELECT id FROM missing"); sqlErrCode(err) != wire.CodeTableNotFound {
		t.Fatalf("missing table: err = %v, want code %d", err, wire.CodeTableNotFound)
	}
	if _, err := cl.Query("SELECT FROM WHERE"); sqlErrCode(err) != wire.CodeParse {
		t.Fatalf("parse error: err = %v, want code %d", err, wire.CodeParse)
	}
	if _, err := cl.Query("CREATE INDEX ix ON orders (id)"); err == nil {
		// First create succeeds; duplicate maps to the dup-index code.
		if _, err := cl.Query("CREATE INDEX ix ON orders (id)"); sqlErrCode(err) != wire.CodeDupIndex {
			t.Fatalf("dup index: err = %v, want code %d", err, wire.CodeDupIndex)
		}
	}
	// The session survives every statement error.
	res, err := cl.Query("SELECT id FROM orders WHERE id = 0")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after errors: res = %+v err = %v", res, err)
	}
}
