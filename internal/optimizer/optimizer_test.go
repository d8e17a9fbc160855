package optimizer

import (
	"errors"
	"strings"
	"testing"
	"time"

	"autoindex/internal/dmv"
	"autoindex/internal/schema"
	"autoindex/internal/sqlparser"
	"autoindex/internal/stats"
	"autoindex/internal/value"
)

// fakeCatalog is a hand-built catalog for optimizer unit tests.
type fakeCatalog struct {
	tables  map[string]TableInfo
	indexes map[string][]IndexInfo
	stats   map[string]*stats.ColumnStats
}

func (f *fakeCatalog) Table(name string) (TableInfo, bool) {
	t, ok := f.tables[strings.ToLower(name)]
	return t, ok
}

func (f *fakeCatalog) Indexes(table string) []IndexInfo {
	return f.indexes[strings.ToLower(table)]
}

func (f *fakeCatalog) ColumnStats(table, column string) (*stats.ColumnStats, bool) {
	s, ok := f.stats[strings.ToLower(table)+"."+strings.ToLower(column)]
	return s, ok
}

var statT0 = time.Date(2017, 3, 1, 0, 0, 0, 0, time.UTC)

func buildCatalog() *fakeCatalog {
	orders := &schema.Table{
		Name: "orders",
		Columns: []schema.Column{
			{Name: "id", Kind: value.Int},
			{Name: "customer_id", Kind: value.Int},
			{Name: "status", Kind: value.String},
			{Name: "amount", Kind: value.Float},
		},
		PrimaryKey: []string{"id"},
	}
	customers := &schema.Table{
		Name: "customers",
		Columns: []schema.Column{
			{Name: "id", Kind: value.Int},
			{Name: "region", Kind: value.String},
		},
		PrimaryKey: []string{"id"},
	}
	const n = 10000
	custVals := make([]value.Value, n)
	statusVals := make([]value.Value, n)
	idVals := make([]value.Value, n)
	for i := 0; i < n; i++ {
		custVals[i] = value.NewInt(int64(i % 1000)) // 0.1% selectivity
		statusVals[i] = value.NewString([]string{"open", "closed", "void"}[i%3])
		idVals[i] = value.NewInt(int64(i))
	}
	regionVals := make([]value.Value, 100)
	cidVals := make([]value.Value, 100)
	for i := 0; i < 100; i++ {
		regionVals[i] = value.NewString([]string{"east", "west"}[i%2])
		cidVals[i] = value.NewInt(int64(i))
	}
	return &fakeCatalog{
		tables: map[string]TableInfo{
			"orders":    {Def: orders, RowCount: n, DataPages: 60, ClusteredHeight: 2},
			"customers": {Def: customers, RowCount: 100, DataPages: 2, ClusteredHeight: 1},
		},
		indexes: map[string][]IndexInfo{},
		stats: map[string]*stats.ColumnStats{
			"orders.customer_id": stats.Build("customer_id", custVals, statT0),
			"orders.status":      stats.Build("status", statusVals, statT0),
			"orders.id":          stats.Build("id", idVals, statT0),
			"customers.region":   stats.Build("region", regionVals, statT0),
			"customers.id":       stats.Build("id", cidVals, statT0),
		},
	}
}

func addIndex(cat *fakeCatalog, def schema.IndexDef) {
	t := cat.tables[strings.ToLower(def.Table)]
	cat.indexes[strings.ToLower(def.Table)] = append(
		cat.indexes[strings.ToLower(def.Table)], HypotheticalIndexInfo(def, t))
}

func plan(t *testing.T, cat Catalog, sql string) *Plan {
	t.Helper()
	o := &Optimizer{Cat: cat}
	p, err := o.Plan(sqlparser.MustParse(sql))
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

func TestScanWhenNoIndex(t *testing.T) {
	cat := buildCatalog()
	p := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 7`)
	if !strings.Contains(p.Shape(), "SeqScan") {
		t.Fatalf("expected scan:\n%s", p.Explain())
	}
	if p.EstRows < 4 || p.EstRows > 30 {
		t.Fatalf("estimated rows %v, want ~10", p.EstRows)
	}
}

func TestSeekChosenWithIndex(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "ix_cust", Table: "orders", KeyColumns: []string{"customer_id"}})
	p := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 7`)
	if !strings.Contains(p.Shape(), "ix_cust") {
		t.Fatalf("expected seek:\n%s", p.Explain())
	}
	// Index covers (customer_id, id-from-locator): no lookup.
	if strings.Contains(p.Shape(), "+lookup") {
		t.Fatalf("locator makes this covering:\n%s", p.Explain())
	}
}

func TestLookupPenaltyFlipsToScan(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "ix_status", Table: "orders", KeyColumns: []string{"status"}})
	// status = 'open' matches ~1/3 of 10k rows; a non-covering seek would
	// need ~3300 lookups — the scan must win.
	p := plan(t, cat, `SELECT amount FROM orders WHERE status = 'open'`)
	if !strings.Contains(p.Shape(), "SeqScan") {
		t.Fatalf("lookup-heavy seek should lose to scan:\n%s", p.Explain())
	}
	// A selective predicate on an indexed column uses the seek despite the
	// lookup.
	addIndex(cat, schema.IndexDef{Name: "ix_cust2", Table: "orders", KeyColumns: []string{"customer_id"}})
	p = plan(t, cat, `SELECT amount FROM orders WHERE customer_id = 3`)
	if !strings.Contains(p.Shape(), "ix_cust2") || !strings.Contains(p.Shape(), "+lookup") {
		t.Fatalf("selective seek with lookup expected:\n%s", p.Explain())
	}
}

func TestClusteredSeekForPKPredicate(t *testing.T) {
	cat := buildCatalog()
	p := plan(t, cat, `SELECT amount FROM orders WHERE id = 42`)
	if !strings.Contains(p.Shape(), strings.ToLower(ClusteredIndexName("orders"))) {
		t.Fatalf("expected clustered seek:\n%s", p.Explain())
	}
	if p.EstRows > 2 {
		t.Fatalf("PK point estimate %v", p.EstRows)
	}
}

func TestRangeSeekUsesOneInequality(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "ix_cust_amt", Table: "orders", KeyColumns: []string{"customer_id", "amount"}})
	p := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 5 AND amount > 10 AND amount <= 20`)
	shape := p.Shape()
	if !strings.Contains(shape, "ix_cust_amt") {
		t.Fatalf("expected composite seek:\n%s", p.Explain())
	}
	if !strings.Contains(shape, "seek(customer_id;amount") {
		t.Fatalf("range column should be in the seek:\n%s", shape)
	}
}

func TestOrderByIndexAvoidsSort(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "ix_cust_amt", Table: "orders", KeyColumns: []string{"customer_id", "amount"}})
	p := plan(t, cat, `SELECT TOP 10 amount FROM orders WHERE customer_id = 5 ORDER BY amount`)
	if strings.Contains(p.Shape(), "Sort") {
		t.Fatalf("index provides order, sort unnecessary:\n%s", p.Explain())
	}
	// DESC requires a sort in this engine (forward-only scans).
	p = plan(t, cat, `SELECT TOP 10 amount FROM orders WHERE customer_id = 5 ORDER BY amount DESC`)
	if !strings.Contains(p.Shape(), "Sort") {
		t.Fatalf("DESC must sort:\n%s", p.Explain())
	}
}

func TestJoinPrefersNLWithIndex(t *testing.T) {
	cat := buildCatalog()
	// customers.id is the PK: NL join via clustered seek should beat hash
	// join for a filtered outer.
	p := plan(t, cat, `SELECT o.id FROM orders o JOIN customers c ON o.customer_id = c.id WHERE o.customer_id = 3`)
	if !strings.Contains(p.Shape(), "NestedLoops") {
		t.Logf("shape:\n%s", p.Explain())
	}
	// Unfiltered join on a non-indexed inner column: hash join.
	p = plan(t, cat, `SELECT o.id FROM customers c JOIN orders o ON c.id = o.customer_id`)
	if !strings.Contains(p.Shape(), "HashJoin") && !strings.Contains(p.Shape(), "NestedLoops") {
		t.Fatalf("some join expected:\n%s", p.Explain())
	}
}

func TestWritePlansChargeMaintenance(t *testing.T) {
	cat := buildCatalog()
	base := plan(t, cat, `INSERT INTO orders (id, customer_id, status, amount) VALUES (1, 2, 'open', 3.5)`)
	addIndex(cat, schema.IndexDef{Name: "ix_a", Table: "orders", KeyColumns: []string{"customer_id"}})
	addIndex(cat, schema.IndexDef{Name: "ix_b", Table: "orders", KeyColumns: []string{"status"}})
	withIx := plan(t, cat, `INSERT INTO orders (id, customer_id, status, amount) VALUES (1, 2, 'open', 3.5)`)
	if withIx.EstCost <= base.EstCost {
		t.Fatalf("insert cost must grow with indexes: %v vs %v", withIx.EstCost, base.EstCost)
	}
	if len(withIx.Root.MaintIndexes) != 2 {
		t.Fatalf("maintenance list: %v", withIx.Root.MaintIndexes)
	}
	// Update maintains only indexes containing SET columns.
	up := plan(t, cat, `UPDATE orders SET amount = 9.5 WHERE id = 1`)
	if len(up.Root.MaintIndexes) != 0 {
		t.Fatalf("no index contains amount: %v", up.Root.MaintIndexes)
	}
	up = plan(t, cat, `UPDATE orders SET status = 'void' WHERE id = 1`)
	if len(up.Root.MaintIndexes) != 1 || !strings.EqualFold(up.Root.MaintIndexes[0], "ix_b") {
		t.Fatalf("maintenance: %v", up.Root.MaintIndexes)
	}
}

func TestHypotheticalInvisibleOutsideWhatIf(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "hypo", Table: "orders", KeyColumns: []string{"customer_id"}, Hypothetical: true})
	p := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 7`)
	if strings.Contains(p.Shape(), "hypo") {
		t.Fatalf("hypothetical index used by normal planning:\n%s", p.Explain())
	}
	o := &Optimizer{Cat: cat, WhatIfMode: true}
	wp, err := o.Plan(sqlparser.MustParse(`SELECT id FROM orders WHERE customer_id = 7`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(wp.Shape(), "hypo") {
		t.Fatalf("what-if mode must see hypothetical:\n%s", wp.Explain())
	}
}

func TestWhatIfCatalogOverlay(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "real_ix", Table: "orders", KeyColumns: []string{"status"}})
	w := NewWhatIfCatalog(cat)
	w.AddHypothetical(schema.IndexDef{Name: "h1", Table: "orders", KeyColumns: []string{"customer_id"}})
	if len(w.Indexes("orders")) != 2 {
		t.Fatalf("overlay: %v", w.Indexes("orders"))
	}
	w.RemoveHypothetical("h1")
	ixs := w.Indexes("orders")
	if len(ixs) != 1 || ixs[0].Def.Name != "real_ix" {
		t.Fatalf("remove failed: %v", ixs)
	}
}

func TestWhatIfBulkInsertUnsupported(t *testing.T) {
	cat := buildCatalog()
	o := &Optimizer{Cat: cat, WhatIfMode: true}
	_, err := o.Plan(sqlparser.MustParse(`BULK INSERT orders FROM DATASOURCE x`))
	if !errors.Is(err, ErrWhatIfUnsupported) {
		t.Fatalf("want ErrWhatIfUnsupported, got %v", err)
	}
}

func TestMissingIndexEmittedOnScan(t *testing.T) {
	cat := buildCatalog()
	var got []dmv.Candidate
	o := &Optimizer{Cat: cat, MI: miFunc(func(c dmv.Candidate, _ uint64, _, _ float64) {
		got = append(got, c)
	})}
	if _, err := o.Plan(sqlparser.MustParse(`SELECT amount FROM orders WHERE customer_id = 7`)); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("expected an MI candidate from a scan with a sargable predicate")
	}
	if !strings.EqualFold(got[0].Equality[0], "customer_id") {
		t.Fatalf("candidate: %+v", got[0])
	}
	// No emission for unconditional deletes or inserts.
	got = nil
	o.Plan(sqlparser.MustParse(`DELETE FROM orders`))                                                           //nolint:errcheck
	o.Plan(sqlparser.MustParse(`INSERT INTO orders (id, customer_id, status, amount) VALUES (1, 1, 'x', 1.0)`)) //nolint:errcheck
	if len(got) != 0 {
		t.Fatalf("MI must skip inserts and predicate-less writes: %+v", got)
	}
}

type miFunc func(c dmv.Candidate, queryHash uint64, estCost, improvementPct float64)

func (f miFunc) ObserveMissingIndex(c dmv.Candidate, q uint64, e, i float64) { f(c, q, e, i) }

func TestPlanHashStableAcrossLiterals(t *testing.T) {
	cat := buildCatalog()
	p1 := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 7`)
	p2 := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 55`)
	if p1.PlanHash != p2.PlanHash {
		t.Fatal("same shape must share plan hash")
	}
	addIndex(cat, schema.IndexDef{Name: "ix_cust", Table: "orders", KeyColumns: []string{"customer_id"}})
	p3 := plan(t, cat, `SELECT id FROM orders WHERE customer_id = 7`)
	if p1.PlanHash == p3.PlanHash {
		t.Fatal("different access path must change plan hash")
	}
}

func TestBindingErrors(t *testing.T) {
	cat := buildCatalog()
	o := &Optimizer{Cat: cat}
	for _, sql := range []string{
		`SELECT x FROM nope`,
		`SELECT ghost FROM orders`,
		`SELECT id FROM orders WHERE ghost = 1`,
		`SELECT id FROM orders o JOIN customers o ON o.id = o.id`,
		`SELECT id FROM orders o JOIN customers c ON o.id = c.id`, // ambiguous "id"? qualified, fine
	} {
		_, err := o.Plan(sqlparser.MustParse(sql))
		if sql == `SELECT id FROM orders o JOIN customers c ON o.id = c.id` {
			if err == nil {
				t.Errorf("unqualified ambiguous id should fail: %q", sql)
			}
			continue
		}
		if err == nil {
			t.Errorf("plan(%q) should fail", sql)
		}
	}
}

func TestGroupByPrefersCoveringIndexScan(t *testing.T) {
	cat := buildCatalog()
	// Without an index: base scan feeds the aggregate.
	p := plan(t, cat, `SELECT status, COUNT(*) FROM orders GROUP BY status`)
	if !strings.Contains(p.Shape(), "SeqScan") {
		t.Fatalf("expected base scan:\n%s", p.Explain())
	}
	base := p.EstCost
	// A narrow covering index makes the aggregation input much cheaper.
	addIndex(cat, schema.IndexDef{Name: "ix_status_narrow", Table: "orders", KeyColumns: []string{"status"}})
	p = plan(t, cat, `SELECT status, COUNT(*) FROM orders GROUP BY status`)
	if !strings.Contains(p.Shape(), "ix_status_narrow") {
		t.Fatalf("expected covering index scan:\n%s", p.Explain())
	}
	if p.EstCost >= base {
		t.Fatalf("covering scan not cheaper: %v >= %v", p.EstCost, base)
	}
}

func TestJoinAlgorithmCrossover(t *testing.T) {
	cat := buildCatalog()
	addIndex(cat, schema.IndexDef{Name: "ix_ocust", Table: "orders", KeyColumns: []string{"customer_id"}, IncludedColumns: []string{"amount"}})
	// Small outer (one customer row) probing a big indexed inner: NL wins.
	p := plan(t, cat, `SELECT o.amount FROM customers c JOIN orders o ON c.id = o.customer_id WHERE c.id = 7`)
	if !strings.Contains(p.Shape(), "NestedLoops") {
		t.Fatalf("selective outer should use NL:\n%s", p.Explain())
	}
	// Huge outer with no useful inner index on the join column: hash join.
	cat2 := buildCatalog()
	p = plan(t, cat2, `SELECT o.amount FROM orders o JOIN customers c ON o.customer_id = c.id`)
	// Inner side customers has PK on id — NL via clustered seek is also
	// legitimate; assert only that some join was planned and costed.
	if !strings.Contains(p.Shape(), "Join") && !strings.Contains(p.Shape(), "NestedLoops") {
		t.Fatalf("no join operator:\n%s", p.Explain())
	}
	if p.EstRows < 1000 {
		t.Fatalf("join cardinality estimate too small: %v", p.EstRows)
	}
}

func TestCostStatementMatchesPlan(t *testing.T) {
	cat := buildCatalog()
	o := &Optimizer{Cat: cat}
	cost, p, err := o.CostStatement(sqlparser.MustParse(`SELECT id FROM orders WHERE customer_id = 7`))
	if err != nil {
		t.Fatal(err)
	}
	if cost != p.EstCost {
		t.Fatalf("cost %v != plan cost %v", cost, p.EstCost)
	}
	if o.Calls() != 1 {
		t.Fatalf("calls = %d", o.Calls())
	}
}

func TestHypotheticalInfoScaling(t *testing.T) {
	cat := buildCatalog()
	ti, _ := cat.Table("orders")
	narrow := HypotheticalIndexInfo(schema.IndexDef{Table: "orders", KeyColumns: []string{"customer_id"}}, ti)
	wide := HypotheticalIndexInfo(schema.IndexDef{Table: "orders", KeyColumns: []string{"customer_id"}, IncludedColumns: []string{"status", "amount"}}, ti)
	if wide.LeafPages <= narrow.LeafPages {
		t.Fatalf("wider index must have more leaf pages: %d vs %d", wide.LeafPages, narrow.LeafPages)
	}
	if narrow.Height < 1 || narrow.RowCount != ti.RowCount {
		t.Fatalf("info: %+v", narrow)
	}
}
