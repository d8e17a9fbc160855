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

// ExecOptions modulates statement execution. The zero value is the
// simulator's behaviour.
type ExecOptions struct {
	// LiveCapture marks the execution as captured from a real client
	// session; Query Store tracks the split so tuning can report whether
	// a recommendation was driven by live or simulated workload.
	LiveCapture bool
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
	for _, tbl := range planTables(plan) {
		if d.locks.SharedBlocked(tbl) {
			d.mu.Lock()
			d.convoyBlocked++
			d.mu.Unlock()
			blockedWait += 50 * time.Millisecond
		}
	}

	meter := &executor.Meter{}
	d.mu.Lock()
	res, err := d.run(plan, stmt, meter)
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

func planTables(p *optimizer.Plan) []string {
	seen := make(map[string]bool)
	var out []string
	var walk func(n *optimizer.Node)
	walk = func(n *optimizer.Node) {
		if n.Table != "" && !seen[strings.ToLower(n.Table)] {
			seen[strings.ToLower(n.Table)] = true
			out = append(out, n.Table)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(p.Root)
	return out
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

// run executes the plan under d.mu.
func (d *Database) run(plan *optimizer.Plan, stmt sqlparser.Statement, meter *executor.Meter) (*Result, error) {
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
		src, lay, err := d.compile(plan.Root, meter)
		if err != nil {
			return nil, err
		}
		rows := executor.Drain(src)
		cols := make([]string, 0, len(lay.cols))
		for _, c := range lay.cols {
			if c.name == ridColName {
				continue
			}
			cols = append(cols, c.name)
		}
		return &Result{Rows: rows, Columns: cols}, nil
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

const ridColName = "__rid"

// tableLayout is the full-row layout for an access node, with a hidden RID
// column for heap tables so writes can locate rows.
func (d *Database) tableLayout(t *tableData, alias string) *layout {
	l := &layout{}
	a := strings.ToLower(alias)
	for _, c := range t.def.Columns {
		l.cols = append(l.cols, layoutCol{alias: a, name: strings.ToLower(c.Name)})
	}
	if t.heap != nil {
		l.cols = append(l.cols, layoutCol{alias: a, name: ridColName})
	}
	return l
}

// ---- predicate compilation ----

func compilePreds(preds []sqlparser.Predicate, lay *layout) (func(value.Row) bool, error) {
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

// ---- access sources ----

// seqScanSource streams a table in physical order, from a heap cursor or
// the clustered tree's iterator: one page on the first pull, then
// perRowPage and one row per row handed out. Nothing is read ahead, so a
// consumer that stops early (TOP n) is charged, and allocates, only for
// what it took. The caller holds d.mu until the source is dropped.
type seqScanSource struct {
	heap       *storage.Cursor // nil for a clustered table
	clustered  *btree.Iterator
	meter      *executor.Meter
	perRowPage float64
	charged    bool
}

func (s *seqScanSource) Next() (value.Row, bool) {
	if !s.charged {
		s.meter.ChargePages(1)
		s.charged = true
	}
	var row value.Row
	if s.heap != nil {
		rid, r, ok := s.heap.Next()
		if !ok {
			return nil, false
		}
		row = withRID(r, rid)
	} else {
		e, ok := s.clustered.Next()
		if !ok {
			return nil, false
		}
		row = e.Payload
	}
	s.meter.ChargePages(s.perRowPage)
	s.meter.ChargeRows(1)
	return row, true
}

// withRID returns a heap row in tableLayout shape: the base columns and
// the hidden RID column.
func withRID(base value.Row, rid storage.RID) value.Row {
	row := make(value.Row, 0, len(base)+1)
	row = append(row, base...)
	return append(row, value.NewInt(int64(rid)))
}

// compileAccess builds the source for a base access node. It returns the
// rows with the node's output layout.
func (d *Database) compileAccess(n *optimizer.Node, meter *executor.Meter) (executor.Source, *layout, error) {
	t, ok := d.tables[strings.ToLower(n.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown table %q", n.Table)
	}
	switch n.Kind {
	case optimizer.KindSeqScan:
		return d.compileSeqScan(n, t, meter)
	case optimizer.KindIndexScan, optimizer.KindIndexSeek:
		return d.compileIndexAccess(n, t, meter)
	default:
		return nil, nil, fmt.Errorf("engine: %v is not an access node", n.Kind)
	}
}

func (d *Database) compileSeqScan(n *optimizer.Node, t *tableData, meter *executor.Meter) (executor.Source, *layout, error) {
	lay := d.tableLayout(t, n.Alias)
	scan := &seqScanSource{meter: meter, perRowPage: 1.0 / float64(storage.RowsPerPage(t.def.RowWidth()))}
	if t.heap != nil {
		scan.heap = t.heap.Cursor()
	} else {
		scan.clustered = t.clustered.Seek(nil, true, nil, true)
		d.usage.RecordScan(optimizer.ClusteredIndexName(t.def.Name), t.def.Name, d.clock.Now())
	}
	var src executor.Source = scan
	if len(n.Residual) > 0 {
		pred, err := compilePreds(n.Residual, lay)
		if err != nil {
			return nil, nil, err
		}
		src = &executor.Filter{Child: src, Pred: pred, Meter: meter}
	}
	return src, lay, nil
}

// indexEntrySource iterates a B+ tree range, charging height once and leaf
// pages incrementally.
type indexEntrySource struct {
	it         *btree.Iterator
	meter      *executor.Meter
	perRowPage float64
	height     float64
	charged    bool
	// prefix is the equality prefix entries must match; scanning stops at
	// the first mismatch.
	prefix value.Key
	// stop, when non-nil, aborts the scan when an entry fails it.
	stop func(k value.Key) bool
}

func (s *indexEntrySource) Next() (btree.Entry, bool) {
	if !s.charged {
		s.meter.ChargePages(s.height)
		s.charged = true
	}
	for {
		e, ok := s.it.Next()
		if !ok {
			return btree.Entry{}, false
		}
		s.meter.ChargePages(s.perRowPage)
		s.meter.ChargeRows(1)
		if len(s.prefix) > 0 {
			if len(e.Key) < len(s.prefix) {
				return btree.Entry{}, false
			}
			for i, pv := range s.prefix {
				if value.Compare(e.Key[i], pv) != 0 {
					return btree.Entry{}, false
				}
			}
		}
		if s.stop != nil && !s.stop(e.Key) {
			return btree.Entry{}, false
		}
		return e, true
	}
}

func (d *Database) compileIndexAccess(n *optimizer.Node, t *tableData, meter *executor.Meter) (executor.Source, *layout, error) {
	// The clustered index appears in NL-join inner plans under its
	// synthetic name.
	if strings.EqualFold(n.Index, optimizer.ClusteredIndexName(t.def.Name)) {
		return d.compileClusteredSeek(n, t, meter)
	}
	ix, ok := d.indexes[strings.ToLower(n.Index)]
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown index %q", n.Index)
	}
	entries := treeEntrySource(n, ix.tree, meter)
	now := d.clock.Now()
	if n.Kind == optimizer.KindIndexScan {
		d.usage.RecordScan(ix.def.Name, t.def.Name, now)
	} else {
		d.usage.RecordSeek(ix.def.Name, t.def.Name, now)
	}

	if n.Lookup {
		// Fetch the base row through the locator.
		lay := d.tableLayout(t, n.Alias)
		var out executor.Source = &lookupSource{d: d, t: t, ix: ix, entries: entries, meter: meter}
		out, err := strictRangeFilter(n, lay, out, meter)
		if err != nil {
			return nil, nil, err
		}
		if len(n.Residual) > 0 {
			pred, err := compilePreds(n.Residual, lay)
			if err != nil {
				return nil, nil, err
			}
			out = &executor.Filter{Child: out, Pred: pred, Meter: meter}
		}
		return out, lay, nil
	}

	// Covering: output key + included columns + the locator (the clustered
	// key or heap RID every leaf entry carries).
	lay := &layout{}
	a := strings.ToLower(n.Alias)
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
	nk := len(ix.def.KeyColumns)
	var out executor.Source = &entryRowSource{entries: entries, render: func(e btree.Entry) value.Row {
		row := make(value.Row, 0, nk+len(e.Payload))
		row = append(row, e.Key[:nk]...)
		row = append(row, e.Payload...) // includes + locator
		return row
	}}
	out, err := strictRangeFilter(n, lay, out, meter)
	if err != nil {
		return nil, nil, err
	}
	if len(n.Residual) > 0 {
		pred, err := compilePreds(n.Residual, lay)
		if err != nil {
			return nil, nil, err
		}
		out = &executor.Filter{Child: out, Pred: pred, Meter: meter}
	}
	return out, lay, nil
}

// treeEntrySource builds the bounded range iterator for a seek/scan node
// over any B+ tree (secondary index or clustered index). Strict (< / >)
// bounds are widened to inclusive at the tree level — entries equal to a
// strict bound are removed by strictRangeFilter afterwards, matching how a
// storage engine seeks to the boundary and filters.
func treeEntrySource(n *optimizer.Node, tree *btree.Tree, meter *executor.Meter) *indexEntrySource {
	leaves := float64(tree.LeafCount())
	entries := float64(tree.Len())
	perRow := 0.0
	if entries > 0 {
		perRow = leaves / entries
	}
	src := &indexEntrySource{meter: meter, perRowPage: perRow, height: float64(tree.Height())}
	if n.Kind == optimizer.KindIndexScan {
		src.it = tree.Seek(nil, true, nil, true)
		src.height = 0 // full scan pays leaf pages, not a root-to-leaf probe
		return src
	}
	// Seek: equality prefix + optional range bounds on the next column.
	prefix := make(value.Key, 0, len(n.SeekEq))
	for _, p := range n.SeekEq {
		prefix = append(prefix, p.Val)
	}
	src.prefix = prefix
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
		src.stop = func(k value.Key) bool {
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
	src.it = tree.Seek(seekLo, true, nil, true)
	return src
}

// strictRangeFilter removes rows equal to a strict lower bound that the
// tree seek could not exclude.
func strictRangeFilter(n *optimizer.Node, lay *layout, src executor.Source, meter *executor.Meter) (executor.Source, error) {
	var strict []sqlparser.Predicate
	for _, p := range n.SeekRange {
		if p.Op == sqlparser.OpGT || p.Op == sqlparser.OpLT {
			strict = append(strict, p)
		}
	}
	if len(strict) == 0 {
		return src, nil
	}
	pred, err := compilePreds(strict, lay)
	if err != nil {
		return nil, err
	}
	return &executor.Filter{Child: src, Pred: pred, Meter: meter}, nil
}

// entryRowSource adapts index entries to rows.
type entryRowSource struct {
	entries *indexEntrySource
	render  func(btree.Entry) value.Row
}

func (s *entryRowSource) Next() (value.Row, bool) {
	e, ok := s.entries.Next()
	if !ok {
		return nil, false
	}
	return s.render(e), true
}

// lookupSource fetches base rows for non-covering index entries, charging
// random page accesses — the cost that makes lookup-heavy seeks lose to
// scans when cardinality was underestimated.
type lookupSource struct {
	d       *Database
	t       *tableData
	ix      *indexData
	entries *indexEntrySource
	meter   *executor.Meter
}

func (s *lookupSource) Next() (value.Row, bool) {
	for {
		e, ok := s.entries.Next()
		if !ok {
			return nil, false
		}
		loc := e.Payload[len(s.ix.inclOrds):]
		row, found := s.d.fetchByLocator(s.t, value.Key(loc), s.meter)
		if !found {
			continue
		}
		return row, true
	}
}

// fetchByLocator returns the base row (in tableLayout shape) for a locator.
func (d *Database) fetchByLocator(t *tableData, loc value.Key, meter *executor.Meter) (value.Row, bool) {
	if t.clustered != nil {
		meter.ChargePages(float64(t.clustered.Height()) * optimizer.RandomPageFactor)
		d.usage.RecordLookup(optimizer.ClusteredIndexName(t.def.Name), t.def.Name, d.clock.Now())
		row, ok := t.clustered.Get(loc)
		return row, ok
	}
	meter.ChargePages(1 * optimizer.RandomPageFactor)
	rid := storage.RID(loc[0].I)
	base, ok := t.heap.Get(rid)
	if !ok {
		return nil, false
	}
	return withRID(base, rid), true
}

// compileClusteredSeek seeks the clustered index by a primary-key prefix.
func (d *Database) compileClusteredSeek(n *optimizer.Node, t *tableData, meter *executor.Meter) (executor.Source, *layout, error) {
	if t.clustered == nil {
		return nil, nil, fmt.Errorf("engine: table %q is a heap, no clustered index", t.def.Name)
	}
	entries := treeEntrySource(n, t.clustered, meter)
	now := d.clock.Now()
	if n.Kind == optimizer.KindIndexScan {
		d.usage.RecordScan(optimizer.ClusteredIndexName(t.def.Name), t.def.Name, now)
	} else {
		d.usage.RecordSeek(optimizer.ClusteredIndexName(t.def.Name), t.def.Name, now)
	}
	lay := d.tableLayout(t, n.Alias)
	var out executor.Source = &entryRowSource{entries: entries, render: func(e btree.Entry) value.Row {
		return e.Payload
	}}
	out, err := strictRangeFilter(n, lay, out, meter)
	if err != nil {
		return nil, nil, err
	}
	if len(n.Residual) > 0 {
		pred, err := compilePreds(n.Residual, lay)
		if err != nil {
			return nil, nil, err
		}
		out = &executor.Filter{Child: out, Pred: pred, Meter: meter}
	}
	return out, lay, nil
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
