package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"autoindex/internal/engine"
	"autoindex/internal/serve"
	"autoindex/internal/sim"
	"autoindex/internal/sqlparser"
	"autoindex/internal/value"
	"autoindex/internal/wire"
	"autoindex/internal/workload"
)

const (
	// serveDB names the served tenant as fleet.Build names its first one,
	// so the tenant the serve workloads run against is also the first
	// tenant of tune_fleet and the tenant a one-database fleet builds.
	serveDB       = "db000"
	servePassword = "bench"
	// serveConns is the closed-loop client count of every timed wire
	// phase: a tenant application's pooled connection waits for its reply
	// before sending the next statement.
	serveConns = 2
	// sampledReads is how many reads are re-run after the timed region
	// and compared, text and binary, against in-process execution.
	sampledReads = 200
)

// stmt is one generated statement of a wire phase.
type stmt struct {
	// db indexes the tenant the statement is for in serveInput.tenants.
	db  int
	sql string
	// prepared sends the statement as COM_STMT_EXECUTE on the per-table
	// point lookup prepared once per connection, binding id.
	prepared bool
	table    string
	id       int64
	// rowSign is how an acknowledgement moves table's row count: +1 per
	// affected row for INSERT and BULK INSERT, -1 for DELETE, else 0.
	rowSign int64
	read    bool
}

// text is the statement as COM_QUERY would carry it.
func (s *stmt) text() string {
	if s.prepared {
		return fmt.Sprintf("SELECT * FROM %s WHERE id = %d", s.table, s.id)
	}
	return s.sql
}

func preparedLookup(table string) string {
	return "SELECT * FROM " + table + " WHERE id = ?"
}

// serveInput is the tenants a wire phase serves and the statement
// stream to send them.
type serveInput struct {
	tenants []*workload.Tenant
	stmts   []stmt
	initial []map[string]int64 // per tenant: row count per table before the stream
}

func newServeInput(tenants []*workload.Tenant, n int) *serveInput {
	in := &serveInput{tenants: tenants, stmts: make([]stmt, 0, n), initial: make([]map[string]int64, len(tenants))}
	for i, tn := range tenants {
		in.initial[i] = make(map[string]int64, len(tn.Tables))
		for _, ts := range tn.Tables {
			in.initial[i][ts.Name] = tn.DB.RowCount(ts.Name)
		}
	}
	return in
}

// fixedSeed seeds every tenant, fleet and archetype the benchmark
// builds. Schema shape, table sizes and template weights all hang off a
// tenant's seed and move a statement's cost by tens of percent, so they
// stay the same on every run; -seed varies the statements (see burn).
const fixedSeed = 42

// newServeTenant builds the Standard-tier tenant both serve workloads
// run against, with its generator advanced for seed.
func newServeTenant(p params) (*workload.Tenant, error) {
	return newTwin(serveProfile(p), p.seed)
}

func serveProfile(p params) workload.Profile {
	return workload.Profile{
		Name:        serveDB,
		Tier:        engine.TierStandard,
		Seed:        fixedSeed,
		Scale:       p.dataScale,
		UserIndexes: true,
	}
}

// newTwin builds the tenant of a profile with its generator advanced
// for seed: calling it again gives an identical, independent tenant.
func newTwin(profile workload.Profile, seed int64) (*workload.Tenant, error) {
	tn, err := workload.NewTenant(profile, sim.NewClock())
	if err != nil {
		return nil, err
	}
	burn(tn, seed)
	return tn, nil
}

func templatesNamed(tn *workload.Tenant, suffix string) []*workload.Template {
	var out []*workload.Template
	for _, tpl := range tn.Templates {
		if strings.HasSuffix(tpl.Name, suffix) {
			out = append(out, tpl)
		}
	}
	return out
}

// buildSeek generates the serve_seek stream: nine primary-key seeks to
// one primary-key insert, every fourth seek through the binary protocol
// with an id from the benchmark's own seeded generator.
func buildSeek(p params, n int) (*serveInput, error) {
	tn, err := newServeTenant(p)
	if err != nil {
		return nil, err
	}
	points, inserts := templatesNamed(tn, "/point"), templatesNamed(tn, "/insert")
	if len(points) == 0 || len(inserts) == 0 {
		return nil, fmt.Errorf("tenant %d has no clustered table to seek into", fixedSeed)
	}
	rows := make(map[string]int64)
	for _, ts := range tn.Tables {
		rows[ts.Name] = int64(ts.Rows)
	}
	rng := rand.New(rand.NewSource(p.seed))
	in := newServeInput([]*workload.Tenant{tn}, n)
	nextPoint, nextInsert := 0, 0
	for i := 0; i < n; i++ {
		if i%10 == 9 {
			tpl := inserts[nextInsert%len(inserts)]
			nextInsert++
			in.stmts = append(in.stmts, stmt{
				sql: tpl.Gen(tn), table: strings.TrimSuffix(tpl.Name, "/insert"), rowSign: 1,
			})
			continue
		}
		tpl := points[nextPoint%len(points)]
		table := strings.TrimSuffix(tpl.Name, "/point")
		if nextPoint%4 == 3 {
			in.stmts = append(in.stmts, stmt{prepared: true, table: table, id: rng.Int63n(rows[table]), read: true})
		} else {
			in.stmts = append(in.stmts, stmt{sql: tpl.Gen(tn), table: table, read: true})
		}
		nextPoint++
	}
	return in, nil
}

// buildMixed generates the serve_mixed stream: the tenant generator's
// own weighted mix, as an even stream.
func buildMixed(p params, n int) (*serveInput, error) {
	tn, err := newServeTenant(p)
	if err != nil {
		return nil, err
	}
	return evenStream([]*workload.Tenant{tn}, n)
}

// buildReplay generates what a fleet replays into a tenant of profile.
func buildReplay(profile workload.Profile, seed int64, n int) (*serveInput, error) {
	tn, err := newTwin(profile, seed)
	if err != nil {
		return nil, err
	}
	return evenStream([]*workload.Tenant{tn}, n)
}

// evenStream generates n statements of the tenants' own weighted mixes,
// the tenants taking turns. Each template gets exactly its weight's
// share of its tenant's statements (largest remainders first) rather
// than a random draw of it, and its statements are spread evenly over
// the tenant's turns: a few scan-heavy templates carry most of the time
// and bytes, so their sampling noise alone would exceed the allocation
// bound, and equal-count slices of the stream are only alike if each
// holds its share of them. Statements are generated in the order they
// are sent, so a delete still aims at a row a recent insert of the same
// stream created. They are classified by parsing so the row-count check
// knows which acknowledgements move which table.
func evenStream(tenants []*workload.Tenant, n int) (*serveInput, error) {
	in := newServeInput(tenants, n)
	perTenant := make([][]stmt, len(tenants))
	for db, tn := range tenants {
		turns := n / len(tenants)
		if db < n%len(tenants) {
			turns++
		}
		for _, i := range evenOrder(shares(templateWeights(tn), turns)) {
			s, err := classify(tn.Templates[i].Gen(tn))
			if err != nil {
				return nil, err
			}
			s.db = db
			perTenant[db] = append(perTenant[db], s)
		}
	}
	for i := 0; i < n; i++ {
		in.stmts = append(in.stmts, perTenant[i%len(tenants)][i/len(tenants)])
	}
	return in, nil
}

// evenOrder lays out counts[i] copies of each i so that every i is
// spread evenly over the whole: copy k of i sits at the fraction
// (k+½)/counts[i] of the way through.
func evenOrder(counts []int) []int {
	type slot struct {
		at float64
		i  int
	}
	var slots []slot
	for i, c := range counts {
		for k := 0; k < c; k++ {
			slots = append(slots, slot{at: (float64(k) + 0.5) / float64(c), i: i})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].at < slots[b].at })
	out := make([]int, len(slots))
	for k, s := range slots {
		out[k] = s.i
	}
	return out
}

// classify parses a generated statement to learn whether it reads and
// whose row count its acknowledgement moves.
func classify(sql string) (stmt, error) {
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return stmt{}, fmt.Errorf("generated statement does not parse: %w", err)
	}
	s := stmt{sql: sql}
	switch p := parsed.(type) {
	case *sqlparser.SelectStmt:
		s.read = true
	case *sqlparser.InsertStmt:
		s.table, s.rowSign = p.Table, 1
	case *sqlparser.BulkInsertStmt:
		s.table, s.rowSign = p.Table, 1
	case *sqlparser.DeleteStmt:
		s.table, s.rowSign = p.Table, -1
	}
	return s, nil
}

func templateWeights(tn *workload.Tenant) []float64 {
	w := make([]float64, len(tn.Templates))
	for i, tpl := range tn.Templates {
		w[i] = tpl.Weight
	}
	return w
}

// shares apportions n among weights by the largest-remainder rule: the
// counts sum to n and each is within one of its exact share.
func shares(weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]int, len(weights))
	if total <= 0 {
		return out
	}
	type rem struct {
		i    int
		frac float64
	}
	rems := make([]rem, len(weights))
	given := 0
	for i, w := range weights {
		exact := float64(n) * w / total
		out[i] = int(exact)
		given += out[i]
		rems[i] = rem{i: i, frac: exact - float64(out[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for k := 0; k < n-given; k++ {
		out[rems[k%len(rems)].i]++
	}
	return out
}

// server is an in-process serve.Server on a loopback port.
type server struct {
	srv    *serve.Server
	addr   string
	served chan error
}

// startServer serves tenants, each under its database's name.
func startServer(tenants []*workload.Tenant) (*server, error) {
	byName := make(map[string]*engine.Database, len(tenants))
	for _, tn := range tenants {
		byName[tn.DB.Name()] = tn.DB
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv: serve.New(serve.Config{
			Lookup:   func(name string) (*engine.Database, bool) { db, ok := byName[name]; return db, ok },
			Password: servePassword,
		}),
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the sessions and waits for the accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return <-s.served
}

func dial(addr string, tn *workload.Tenant) (*wire.Client, error) {
	return wire.Dial(addr, "bench", servePassword, tn.DB.Name())
}

// rowKey names a table of one of a serveInput's tenants.
type rowKey struct {
	db    int
	table string
}

// wireRun is what sending a stream over the wire produced.
type wireRun struct {
	ops      []op  // one per acknowledged statement
	wallNs   int64 // first send to last reply
	failed   int64
	firstErr error
	// rowDelta is the row-count change the acknowledgements add up to.
	rowDelta map[rowKey]int64
}

// session is one closed-loop client: a connection per tenant and the
// point lookups prepared on them.
type session struct {
	clients  []*wire.Client
	prepared map[rowKey]*wire.Stmt
}

func (s *session) close() {
	for _, cl := range s.clients {
		if cl != nil {
			cl.Close()
		}
	}
}

// runWire sends in's statements over conns closed-loop clients,
// statement i on client i mod conns. Clients dial every tenant and
// prepare before the start barrier; the timed region is statements only.
func runWire(addr string, in *serveInput, conns int) (*wireRun, error) {
	stmts := in.stmts
	sessions := make([]session, conns)
	defer func() {
		for i := range sessions {
			sessions[i].close()
		}
	}()
	for c := range sessions {
		se := session{clients: make([]*wire.Client, len(in.tenants)), prepared: make(map[rowKey]*wire.Stmt)}
		sessions[c] = se
		for db, tn := range in.tenants {
			cl, err := dial(addr, tn)
			if err != nil {
				return nil, fmt.Errorf("dial: %w", err)
			}
			se.clients[db] = cl
		}
		for i := c; i < len(stmts); i += conns {
			key := rowKey{stmts[i].db, stmts[i].table}
			if stmts[i].prepared && se.prepared[key] == nil {
				ps, err := se.clients[key.db].Prepare(preparedLookup(key.table))
				if err != nil {
					return nil, fmt.Errorf("prepare: %w", err)
				}
				se.prepared[key] = ps
			}
		}
	}

	ops := make([]op, len(stmts))
	acked := make([]bool, len(stmts))
	type connOut struct {
		failed   int64
		firstErr error
		rowDelta map[rowKey]int64
	}
	outs := make([]connOut, conns)
	var wg sync.WaitGroup
	region := startTimer()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			se, out := sessions[c], &outs[c]
			out.rowDelta = make(map[rowKey]int64)
			for i := c; i < len(stmts); i += conns {
				s := &stmts[i]
				key := rowKey{s.db, s.table}
				var res *wire.Result
				var err error
				sent := region.ns()
				if s.prepared {
					res, err = se.prepared[key].Execute(s.id)
				} else {
					res, err = se.clients[s.db].Query(s.sql)
				}
				end := region.ns()
				if err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = fmt.Errorf("statement %d (%.60s): %w", i, s.text(), err)
					}
					continue
				}
				ops[i] = op{end: end, lat: end - sent}
				acked[i] = true
				if s.rowSign != 0 {
					out.rowDelta[key] += s.rowSign * int64(res.AffectedRows)
				}
			}
		}(c)
	}
	wg.Wait()
	run := &wireRun{wallNs: region.ns(), rowDelta: make(map[rowKey]int64)}
	for _, out := range outs {
		run.failed += out.failed
		if run.firstErr == nil {
			run.firstErr = out.firstErr
		}
		for k, d := range out.rowDelta {
			run.rowDelta[k] += d
		}
	}
	for i, ok := range acked {
		if ok {
			run.ops = append(run.ops, ops[i])
		}
	}
	return run, nil
}

// checkRowCounts verifies every table holds its initial rows plus what
// the acknowledged inserts and deletes add up to.
func checkRowCounts(in *serveInput, delta map[rowKey]int64) []string {
	var problems []string
	for db, tn := range in.tenants {
		for _, ts := range tn.Tables {
			want := in.initial[db][ts.Name] + delta[rowKey{db, ts.Name}]
			if got := tn.DB.RowCount(ts.Name); got != want {
				problems = append(problems, fmt.Sprintf("table %s.%s holds %d rows, acknowledgements add up to %d", tn.DB.Name(), ts.Name, got, want))
			}
		}
	}
	return problems
}

// checkSampledReads re-runs up to sampledReads reads spread over the
// stream and compares the row multiset each returns over the wire, as
// text and as binary, with what db.Exec returns in process.
func checkSampledReads(addr string, in *serveInput) (checked int, problems []string) {
	var reads []*stmt
	for i := range in.stmts {
		if in.stmts[i].read {
			reads = append(reads, &in.stmts[i])
		}
	}
	if len(reads) == 0 {
		return 0, []string{"stream holds no read to sample"}
	}
	se := session{clients: make([]*wire.Client, len(in.tenants))}
	defer se.close()
	n := sampledReads
	if n > len(reads) {
		n = len(reads)
	}
	for k := 0; k < n; k++ {
		read := reads[k*len(reads)/n]
		sql, tn := read.text(), in.tenants[read.db]
		cl := se.clients[read.db]
		if cl == nil {
			var err error
			if cl, err = dial(addr, tn); err != nil {
				return checked, append(problems, "sampled reads: "+err.Error())
			}
			se.clients[read.db] = cl
		}
		local, err := tn.DB.Exec(sql)
		if err != nil {
			problems = append(problems, fmt.Sprintf("in-process %q: %v", sql, err))
			continue
		}
		want := make([]string, len(local.Rows))
		for i, row := range local.Rows {
			want[i] = renderRow(row)
		}
		sort.Strings(want)
		text, err := cl.Query(sql)
		if err != nil {
			problems = append(problems, fmt.Sprintf("text %q: %v", sql, err))
			continue
		}
		ps, err := cl.Prepare(sql)
		if err != nil {
			problems = append(problems, fmt.Sprintf("prepare %q: %v", sql, err))
			continue
		}
		binary, err := ps.Execute()
		_ = ps.Close() // COM_STMT_CLOSE has no reply; a write error shows on the next command
		if err != nil {
			problems = append(problems, fmt.Sprintf("binary %q: %v", sql, err))
			continue
		}
		for _, reply := range []struct {
			proto string
			res   *wire.Result
		}{{"text", text}, {"binary", binary}} {
			if got := wireRows(reply.res); !slices.Equal(got, want) {
				problems = append(problems, fmt.Sprintf("%s rows of %q differ from in-process execution (%d vs %d rows)", reply.proto, sql, len(got), len(want)))
			}
		}
		checked++
	}
	return checked, problems
}

// renderRow is the benchmark's own rendering of an engine row in the
// wire protocol's text conventions, the oracle the wire rows are held to.
func renderRow(row value.Row) string {
	var b strings.Builder
	for _, v := range row {
		switch {
		case v.IsNull():
			b.WriteString("\x00NULL")
		case v.K == value.Int:
			b.WriteString(strconv.FormatInt(v.I, 10))
		case v.K == value.Float:
			b.WriteString(strconv.FormatFloat(v.F, 'g', -1, 64))
		case v.K == value.Bool && v.I != 0:
			b.WriteString("1")
		case v.K == value.Bool:
			b.WriteString("0")
		case v.K == value.Time:
			b.WriteString(v.Time().Format("2006-01-02 15:04:05"))
		default:
			b.WriteString(v.S)
		}
		b.WriteByte('\x1f')
	}
	return b.String()
}

func wireRows(res *wire.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var b strings.Builder
		for _, c := range row {
			if c.Null {
				b.WriteString("\x00NULL")
			} else {
				b.WriteString(c.Text)
			}
			b.WriteByte('\x1f')
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}
