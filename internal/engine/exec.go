package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/costcache"
	"autoindex/internal/dmv"
	"autoindex/internal/executor"
	"autoindex/internal/optimizer"
	"autoindex/internal/querystore"
	"autoindex/internal/sqlparser"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// Result is the outcome of executing one statement.
type Result struct {
	Rows []value.Row
	// Columns names the output columns for statements that return rows
	// (nil for DDL/DML) — the wire front end encodes resultset metadata
	// from it. Aggregate columns carry their rendered SQL text.
	Columns  []string
	Plan     *optimizer.Plan
	Measured querystore.Measurement
	// RowsAffected counts modified rows for writes.
	RowsAffected int64
}

// ExecOptions modulates statement execution. The zero value returns the
// result rows and records the execution as simulated workload.
type ExecOptions struct {
	// LiveCapture marks the execution as captured from a real client
	// session; Query Store tracks the split so tuning can report whether
	// a recommendation was driven by live or simulated workload.
	LiveCapture bool
	// DiscardRows runs a query for what the tuner sees of it alone: it is
	// planned, metered, captured and recorded as usual, but no result row
	// is built and Result.Rows is nil. Workload replay sets it, because
	// nothing reads the rows it produces.
	DiscardRows bool
}

// parseStatementText parses a statement (exposed for module registration).
func parseStatementText(sql string) (sqlparser.Statement, error) {
	return sqlparser.Parse(sql)
}

// Exec parses and executes one SQL statement.
func (d *Database) Exec(sql string) (*Result, error) {
	return d.ExecWith(sql, ExecOptions{})
}

// ExecWith parses and executes one SQL statement with options.
func (d *Database) ExecWith(sql string, opts ExecOptions) (*Result, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return d.ExecStmtWith(stmt, opts)
}

// ExecStmt executes a parsed statement: DDL is routed to the DDL engine,
// DML/queries are optimized (populating the MI DMVs), executed with true
// cost metering, and recorded into Query Store.
func (d *Database) ExecStmt(stmt sqlparser.Statement) (*Result, error) {
	return d.ExecStmtWith(stmt, ExecOptions{})
}

// ExecStmtWith is ExecStmt with options.
func (d *Database) ExecStmtWith(stmt sqlparser.Statement, opts ExecOptions) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.CreateTableStmt:
		return &Result{}, d.CreateTable(s.Table)
	case *sqlparser.CreateIndexStmt:
		return &Result{}, d.CreateIndex(s.Index, IndexBuildOptions{Online: s.Online})
	case *sqlparser.DropIndexStmt:
		return &Result{}, d.DropIndex(s.Name, DropIndexOptions{})
	}

	reg := d.Metrics()
	opt := &optimizer.Optimizer{Cat: d, MI: &miAdapter{d}, Reg: reg}
	plan, err := opt.Plan(stmt)
	if err != nil {
		return nil, err
	}

	// Convoy accounting: a queued normal-priority exclusive lock blocks
	// this statement's shared schema lock (§8.3).
	blockedWait := time.Duration(0)
	for _, tbl := range sqlparser.Tables(stmt) {
		if d.locks.SharedBlocked(tbl) {
			d.mu.Lock()
			d.convoyBlocked++
			d.mu.Unlock()
			blockedWait += 50 * time.Millisecond
		}
	}

	meter := &executor.Meter{}
	d.mu.Lock()
	res, err := d.run(plan, stmt, meter, opts.DiscardRows)
	d.execCount++
	dataChanged := err == nil && res.RowsAffected > 0
	if dataChanged {
		d.dataVersion++
	}
	d.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if dataChanged {
		// Row counts feed plan costs directly (before any stats refresh),
		// so cached what-if pricings are stale the moment data moves.
		d.costCache.Invalidate(costcache.DataChange)
	}
	res.Plan = plan
	res.Measured = d.measure(meter, blockedWait)
	d.record(stmt, plan, res.Measured, opts.LiveCapture)
	reg.Counter(descStatements).Inc()
	// Estimated-vs-measured calibration: this is the only layer that
	// sees both the optimizer's cost estimate and the metered execution
	// it produced. Rounded percent keeps the histogram integer-valued
	// (the determinism contract).
	if m := res.Measured.CPUMillis; m > 0 {
		errPct := math.Abs(plan.EstCost-m) / m * 100
		reg.Histogram(optimizer.DescEstErrorAbsPct).Observe(int64(math.Round(errPct)))
	}
	return res, nil
}

// measure converts metered units into the execution metrics Query Store
// tracks. CPU time and duration carry multiplicative noise (concurrency,
// temporal effects); logical reads are deterministic, which is exactly why
// the validator prefers logical metrics (§6).
func (d *Database) measure(m *executor.Meter, blocked time.Duration) querystore.Measurement {
	// Page writes (index maintenance, base-row writes) consume real CPU;
	// reads a little. This is what makes over-indexing a write-hot table
	// measurably regress write statements — the dominant MI revert cause
	// in §8.1.
	// A noisy co-tenant (SetLoadFactor) inflates the timing metrics but
	// never the logical reads — the skew §6 says validation must survive.
	lf := d.LoadFactor()
	cpuMs := d.noise.Apply(m.CPUUnits+0.02*m.PagesRead+0.25*m.PagesWritten) * lf
	reads := m.PagesRead + m.PagesWritten
	durMs := d.noise.Apply(cpuMs/d.cfg.Tier.CPUCores()+reads*0.05)*lf + float64(blocked.Milliseconds())
	return querystore.Measurement{
		CPUMillis:      cpuMs,
		LogicalReads:   reads,
		DurationMillis: durMs,
	}
}

// record writes the execution into Query Store and the plan cache. The
// query hash comes from the plan (computed once per optimization) so
// ingestion, the MI DMVs, and the plan-cost cache all share one canonical
// fingerprint.
func (d *Database) record(stmt sqlparser.Statement, plan *optimizer.Plan, m querystore.Measurement, live bool) {
	text := stmt.SQL()
	qhash := plan.QueryHash
	d.mu.Lock()
	d.planTxt[qhash] = text
	d.mu.Unlock()
	truncated := false
	if d.cfg.TruncateTextOver > 0 && len(text) > d.cfg.TruncateTextOver {
		text = text[:d.cfg.TruncateTextOver]
		truncated = true
	}
	isWrite := sqlparser.IsWrite(stmt)
	d.qs.Record(qhash, querystore.QueryMeta{
		Text:               text,
		Truncated:          truncated,
		IsWrite:            isWrite,
		HasWritePredicates: isWrite && len(sqlparser.WritePredicates(stmt)) > 0,
		Live:               live,
	}, querystore.PlanInfo{
		PlanHash:    plan.PlanHash,
		IndexesUsed: append([]string(nil), plan.IndexesUsed...),
	}, m)
}

// PlanCacheText returns the full statement text for a query hash, if the
// plan cache still holds it — DTA's fallback when Query Store stored a
// truncated fragment (§5.3.2).
func (d *Database) PlanCacheText(queryHash uint64) (string, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.planTxt[queryHash]
	return t, ok
}

// miAdapter feeds optimizer MI emissions into the DMV store.
type miAdapter struct{ d *Database }

// ObserveMissingIndex implements optimizer.MIObserver.
func (a *miAdapter) ObserveMissingIndex(c dmv.Candidate, queryHash uint64, estCost, improvementPct float64) {
	a.d.miDMV.Observe(c, queryHash, estCost, improvementPct, a.d.clock.Now())
}

// run executes the plan under d.mu. A query's result rows are built
// unless discard is set.
func (d *Database) run(plan *optimizer.Plan, stmt sqlparser.Statement, meter *executor.Meter, discard bool) (*Result, error) {
	switch plan.Root.Kind {
	case optimizer.KindInsert:
		switch s := stmt.(type) {
		case *sqlparser.InsertStmt:
			n, err := d.execInsert(s, meter)
			return &Result{RowsAffected: n}, err
		case *sqlparser.BulkInsertStmt:
			n, err := d.execBulkInsert(s, meter)
			return &Result{RowsAffected: n}, err
		}
		return nil, fmt.Errorf("engine: insert plan for %T", stmt)
	case optimizer.KindUpdate:
		s := stmt.(*sqlparser.UpdateStmt)
		n, err := d.execUpdate(plan.Root, s, meter)
		return &Result{RowsAffected: n}, err
	case optimizer.KindDelete:
		s := stmt.(*sqlparser.DeleteStmt)
		n, err := d.execDelete(plan.Root, s, meter)
		return &Result{RowsAffected: n}, err
	default:
		src, lay, err := d.compile(plan.Root, meter, !discard)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: make([]string, len(lay.cols))}
		for i, c := range lay.cols {
			res.Columns[i] = c.name
		}
		if discard {
			for _, ok := src.Next(); ok; _, ok = src.Next() {
			}
		} else {
			res.Rows = executor.Drain(src)
		}
		return res, nil
	}
}

// ---- layouts ----

type layoutCol struct{ alias, name string }

type layout struct{ cols []layoutCol }

func (l *layout) find(alias, name string) int {
	alias = strings.ToLower(alias)
	name = strings.ToLower(name)
	if alias != "" {
		for i, c := range l.cols {
			if c.alias == alias && c.name == name {
				return i
			}
		}
	}
	for i, c := range l.cols {
		if c.name == name {
			return i
		}
	}
	return -1
}

func concatLayouts(a, b *layout) *layout {
	out := &layout{cols: make([]layoutCol, 0, len(a.cols)+len(b.cols))}
	out.cols = append(out.cols, a.cols...)
	out.cols = append(out.cols, b.cols...)
	return out
}

// ridColName names a heap locator column in a covering entry's layout.
const ridColName = "__rid"

// tableLayout is the full-row layout for an access node: the table's
// columns, as stored.
func (d *Database) tableLayout(t *tableData, alias string) *layout {
	l := &layout{cols: make([]layoutCol, 0, len(t.def.Columns))}
	a := strings.ToLower(alias)
	for _, c := range t.def.Columns {
		l.cols = append(l.cols, layoutCol{alias: a, name: strings.ToLower(c.Name)})
	}
	return l
}

// ---- predicate compilation ----

// compilePreds compiles a conjunction against a row layout; it returns a
// nil test when there is nothing to test.
func compilePreds(preds []sqlparser.Predicate, lay *layout) (func(value.Row) bool, error) {
	if len(preds) == 0 {
		return nil, nil
	}
	type cp struct {
		idx int
		op  sqlparser.CompareOp
		val value.Value
	}
	comps := make([]cp, 0, len(preds))
	for _, p := range preds {
		idx := lay.find(p.Col.Table, p.Col.Column)
		if idx < 0 {
			return nil, fmt.Errorf("engine: predicate column %s not in row layout", p.Col)
		}
		comps = append(comps, cp{idx: idx, op: p.Op, val: p.Val})
	}
	return func(r value.Row) bool {
		for _, c := range comps {
			v := r[c.idx]
			if v.IsNull() || c.val.IsNull() {
				return false
			}
			cmp := value.Compare(v, c.val)
			ok := false
			switch c.op {
			case sqlparser.OpEQ:
				ok = cmp == 0
			case sqlparser.OpNE:
				ok = cmp != 0
			case sqlparser.OpLT:
				ok = cmp < 0
			case sqlparser.OpLE:
				ok = cmp <= 0
			case sqlparser.OpGT:
				ok = cmp > 0
			case sqlparser.OpGE:
				ok = cmp >= 0
			}
			if !ok {
				return false
			}
		}
		return true
	}, nil
}

// ---- the access source ----

// accessSource is every base-table access: a heap or clustered sequential
// scan, a clustered seek, a covering index scan or seek, and a lookup
// seek. Per stored row it
//
//  1. reads the row as stored: the heap or clustered row itself, the base
//     row a lookup entry's locator fetches, or a covering entry rendered
//     into a scratch row the source owns;
//  2. charges the access's pages and one row, then one row for the
//     strict-bound test and one for the residual, each run only when the
//     row passed the one before — in this order, because CPU units are a
//     float sum and TestScanMeteringFrozen pins it to the bit;
//  3. hands out a row that passed: a heap, clustered or lookup row as
//     stored, a covering entry as its scratch row (compile copies it for
//     a consumer that keeps it).
//
// A stored row can be handed out uncopied because none is ever written
// in place: btree.Insert and heap.Update swap the slice. No tree key or
// index-entry payload is written in place either — only a node's arrays
// are — which is what lets a stamped tenant share them with its
// archetype's catalog and siblings (see SharedCatalog). So a rejected
// row costs no allocation, and a passing one costs one only when it is a
// covering entry a consumer keeps. Nothing is read ahead, so a consumer
// that stops early (TOP n) is charged only for what it took. The caller
// holds d.mu until the source is dropped.
type accessSource struct {
	meter *executor.Meter
	heap  *storage.Cursor // a heap scan; every other access iterates it
	it    *btree.Iterator
	// firstPages is charged on the first pull, then zeroed: one page for
	// a sequential scan, the tree height for a seek, none for a covering
	// scan.
	firstPages, perRowPage float64
	// prefix is the equality prefix of a seek: it ends at the first entry
	// that does not match. stop, when set, ends it at the first entry past
	// the upper bound.
	prefix value.Key
	stop   func(k value.Key) bool
	// strict tests the bounds the tree seek widened to inclusive; residual
	// the node's other predicates. Either may be nil.
	strict, residual func(value.Row) bool
	// entries turns a secondary-index entry into a row; nil when the
	// stored row is the table's own.
	entries *entryReader
}

// entryReader reads secondary-index entries: a covering entry (scratch
// set) as its key columns then its payload, a lookup entry as the base row
// its locator names, charging the random page accesses that make
// lookup-heavy seeks lose to scans when cardinality was underestimated.
type entryReader struct {
	d       *Database
	t       *tableData
	nk      int // covering: the key columns rendered before the payload
	locAt   int // lookup: where the locator starts in the payload
	scratch value.Row
}

// Next implements executor.Source.
func (s *accessSource) Next() (value.Row, bool) {
	row, _, ok := s.next()
	return row, ok
}

// next returns the next row that passed the access's tests and, for a
// heap row, its RID.
func (s *accessSource) next() (value.Row, storage.RID, bool) {
	if s.firstPages != 0 {
		s.meter.ChargePages(s.firstPages)
		s.firstPages = 0
	}
	for {
		row, rid, ok := s.read()
		if !ok {
			return nil, 0, false
		}
		if row == nil || !s.pass(s.strict, row) || !s.pass(s.residual, row) {
			continue
		}
		return row, rid, true
	}
}

// read returns the next stored row and, for a heap row, its RID; ok is
// false at the end of the access. A lookup whose locator finds no row
// yields a nil row.
func (s *accessSource) read() (row value.Row, rid storage.RID, ok bool) {
	if s.heap != nil {
		if rid, row, ok = s.heap.Next(); ok {
			s.meter.ChargePages(s.perRowPage)
			s.meter.ChargeRows(1)
		}
		return row, rid, ok
	}
	e, ok := s.it.Next()
	if !ok {
		return nil, 0, false
	}
	s.meter.ChargePages(s.perRowPage)
	s.meter.ChargeRows(1)
	if len(e.Key) < len(s.prefix) {
		return nil, 0, false
	}
	for i, pv := range s.prefix {
		if value.Compare(e.Key[i], pv) != 0 {
			return nil, 0, false
		}
	}
	if s.stop != nil && !s.stop(e.Key) {
		return nil, 0, false
	}
	if s.entries == nil {
		return e.Payload, 0, true
	}
	row, rid = s.entries.read(e, s.meter)
	return row, rid, true
}

// pass charges one row for the test and runs it; a nil test is neither
// charged nor run.
func (s *accessSource) pass(test func(value.Row) bool, row value.Row) bool {
	if test == nil {
		return true
	}
	s.meter.ChargeRows(1)
	return test(row)
}

// read returns the row entry e stands for and, for a heap row, its RID;
// the row is nil when a lookup's locator finds none.
func (r *entryReader) read(e btree.Entry, meter *executor.Meter) (value.Row, storage.RID) {
	if r.scratch != nil {
		r.scratch = append(append(r.scratch[:0], e.Key[:r.nk]...), e.Payload...)
		return r.scratch, 0
	}
	loc := value.Key(e.Payload[r.locAt:])
	t := r.t
	if t.clustered != nil {
		meter.ChargePages(float64(t.clustered.Height()) * optimizer.RandomPageFactor)
		r.d.usage.RecordLookup(optimizer.ClusteredIndexName(t.def.Name), t.def.Name, r.d.clock.Now())
		row, _ := t.clustered.Get(loc)
		return row, 0
	}
	meter.ChargePages(1 * optimizer.RandomPageFactor)
	rid := storage.RID(loc[0].I)
	row, _ := t.heap.Get(rid)
	return row, rid
}

// compileAccess builds the source for a base access node. It returns the
// rows with the node's output layout, which the predicates compile
// against.
func (d *Database) compileAccess(n *optimizer.Node, meter *executor.Meter) (*accessSource, *layout, error) {
	t, ok := d.tables[strings.ToLower(n.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown table %q", n.Table)
	}
	src := &accessSource{meter: meter}
	var lay *layout
	clusteredName := optimizer.ClusteredIndexName(t.def.Name)
	switch {
	case n.Kind == optimizer.KindSeqScan:
		lay = d.tableLayout(t, n.Alias)
		src.firstPages = 1
		src.perRowPage = 1.0 / float64(storage.RowsPerPage(t.def.RowWidth()))
		if t.heap != nil {
			src.heap = t.heap.Cursor()
		} else {
			src.it = t.clustered.Seek(nil, true, nil, true)
			d.usage.RecordScan(clusteredName, t.def.Name, d.clock.Now())
		}
	case strings.EqualFold(n.Index, clusteredName):
		// The clustered index appears in seek plans under its synthetic
		// name.
		if t.clustered == nil {
			return nil, nil, fmt.Errorf("engine: table %q is a heap, no clustered index", t.def.Name)
		}
		lay = d.tableLayout(t, n.Alias)
		src.bound(n, t.clustered)
		d.recordIndexUse(n, clusteredName, t.def.Name)
	default:
		ix, ok := d.indexes[strings.ToLower(n.Index)]
		if !ok {
			return nil, nil, fmt.Errorf("engine: unknown index %q", n.Index)
		}
		src.bound(n, ix.tree)
		d.recordIndexUse(n, ix.def.Name, t.def.Name)
		if n.Lookup {
			lay = d.tableLayout(t, n.Alias)
			src.entries = &entryReader{d: d, t: t, locAt: len(ix.inclOrds)}
			break
		}
		lay = coveringLayout(t, ix, n.Alias)
		src.entries = &entryReader{nk: len(ix.def.KeyColumns), scratch: make(value.Row, 0, len(lay.cols))}
	}
	var strict []sqlparser.Predicate
	for _, p := range n.SeekRange {
		if p.Op == sqlparser.OpGT || p.Op == sqlparser.OpLT {
			strict = append(strict, p)
		}
	}
	var err error
	if src.strict, err = compilePreds(strict, lay); err != nil {
		return nil, nil, err
	}
	if src.residual, err = compilePreds(n.Residual, lay); err != nil {
		return nil, nil, err
	}
	return src, lay, nil
}

// recordIndexUse counts a scan or seek of an index in the usage DMV.
func (d *Database) recordIndexUse(n *optimizer.Node, index, table string) {
	if n.Kind == optimizer.KindIndexScan {
		d.usage.RecordScan(index, table, d.clock.Now())
	} else {
		d.usage.RecordSeek(index, table, d.clock.Now())
	}
}

// coveringLayout is a covering entry's row shape: the index key columns,
// the included columns, then the locator.
func coveringLayout(t *tableData, ix *indexData, alias string) *layout {
	lay := &layout{}
	a := strings.ToLower(alias)
	for _, c := range ix.def.KeyColumns {
		lay.cols = append(lay.cols, layoutCol{alias: a, name: strings.ToLower(c)})
	}
	for _, c := range ix.def.IncludedColumns {
		lay.cols = append(lay.cols, layoutCol{alias: a, name: strings.ToLower(c)})
	}
	if t.clustered != nil {
		for _, pk := range t.def.PrimaryKey {
			lay.cols = append(lay.cols, layoutCol{alias: a, name: strings.ToLower(pk)})
		}
	} else {
		lay.cols = append(lay.cols, layoutCol{alias: a, name: ridColName})
	}
	return lay
}

// bound positions the source on the range a seek or scan node reads from
// any B+ tree (secondary or clustered index). Strict (< / >) bounds are
// widened to inclusive at the tree level — the strict test removes the
// entries equal to them afterwards, matching how a storage engine seeks
// to the boundary and filters.
func (s *accessSource) bound(n *optimizer.Node, tree *btree.Tree) {
	if entries := float64(tree.Len()); entries > 0 {
		s.perRowPage = float64(tree.LeafCount()) / entries
	}
	if n.Kind == optimizer.KindIndexScan {
		// A full scan pays leaf pages, not a root-to-leaf probe.
		s.it = tree.Seek(nil, true, nil, true)
		return
	}
	s.firstPages = float64(tree.Height())
	// Seek: equality prefix + optional range bounds on the next column.
	prefix := make(value.Key, 0, len(n.SeekEq))
	for _, p := range n.SeekEq {
		prefix = append(prefix, p.Val)
	}
	s.prefix = prefix
	lo := append(value.Key{}, prefix...)
	rangeIdx := len(prefix)
	var hiVal *value.Value
	var hiIncl bool
	for _, p := range n.SeekRange {
		v := p.Val
		switch p.Op {
		case sqlparser.OpGT, sqlparser.OpGE:
			if len(lo) == rangeIdx {
				lo = append(lo, v)
			}
		case sqlparser.OpLT:
			hiVal, hiIncl = &v, false
		case sqlparser.OpLE:
			hiVal, hiIncl = &v, true
		}
	}
	if hiVal != nil {
		hv := *hiVal
		incl := hiIncl
		s.stop = func(k value.Key) bool {
			if len(k) <= rangeIdx {
				return true
			}
			c := value.Compare(k[rangeIdx], hv)
			return c < 0 || (c == 0 && incl)
		}
	}
	var seekLo value.Key
	if len(lo) > 0 {
		seekLo = lo
	}
	s.it = tree.Seek(seekLo, true, nil, true)
}

// Explain plans a statement without executing it and renders the plan with
// estimates — the EXPLAIN surface used by the recommendation details UI
// and debugging.
func (d *Database) Explain(sql string) (string, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return "", err
	}
	opt := &optimizer.Optimizer{Cat: d, Reg: d.Metrics()}
	plan, err := opt.Plan(stmt)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}
