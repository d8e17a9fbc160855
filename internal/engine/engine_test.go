package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"autoindex/internal/optimizer"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/sqlparser"
	"autoindex/internal/value"
)

func testDB(t *testing.T) (*Database, *sim.VirtualClock) {
	t.Helper()
	clock := sim.NewClock()
	d := New(DefaultConfig("testdb", TierStandard, 42), clock)
	mustExec(t, d, `CREATE TABLE orders (id BIGINT NOT NULL, customer_id BIGINT, status VARCHAR, amount FLOAT, created BIGINT, PRIMARY KEY (id))`)
	mustExec(t, d, `CREATE TABLE customers (id BIGINT NOT NULL, region VARCHAR, name VARCHAR, PRIMARY KEY (id))`)
	for i := 0; i < 500; i++ {
		status := "'open'"
		if i%5 == 0 {
			status = "'closed'"
		}
		mustExec(t, d, sprintf(`INSERT INTO orders (id, customer_id, status, amount, created) VALUES (%d, %d, %s, %d.5, %d)`,
			i, i%50, status, i%100, i))
	}
	for i := 0; i < 50; i++ {
		region := "'east'"
		if i%2 == 0 {
			region = "'west'"
		}
		mustExec(t, d, sprintf(`INSERT INTO customers (id, region, name) VALUES (%d, %s, 'cust%d')`, i, region, i))
	}
	d.RebuildAllStats()
	return d, clock
}

func sprintf(format string, args ...any) string {
	return strings.TrimSpace(fmt.Sprintf(format, args...))
}

func mustExec(t *testing.T, d *Database, sql string) *Result {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestSelectSeqScan(t *testing.T) {
	d, _ := testDB(t)
	res := mustExec(t, d, `SELECT id, amount FROM orders WHERE status = 'closed'`)
	if len(res.Rows) != 100 {
		t.Fatalf("want 100 closed orders, got %d", len(res.Rows))
	}
	if res.Measured.LogicalReads == 0 {
		t.Fatal("expected logical reads to be charged")
	}
}

func TestPointQueryUsesClusteredSeek(t *testing.T) {
	d, _ := testDB(t)
	res := mustExec(t, d, `SELECT amount FROM orders WHERE id = 42`)
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(res.Rows))
	}
	if !strings.Contains(res.Plan.Shape(), "pk_orders") {
		t.Fatalf("expected clustered seek, plan:\n%s", res.Plan.Explain())
	}
	// A point seek must be far cheaper than a full scan.
	scan := mustExec(t, d, `SELECT amount FROM orders WHERE status = 'nope'`)
	if res.Measured.LogicalReads >= scan.Measured.LogicalReads {
		t.Fatalf("seek reads %v >= scan reads %v", res.Measured.LogicalReads, scan.Measured.LogicalReads)
	}
}

func TestSecondaryIndexSeekAndCorrectness(t *testing.T) {
	d, _ := testDB(t)
	want := mustExec(t, d, `SELECT id FROM orders WHERE customer_id = 7`)
	mustExec(t, d, `CREATE INDEX ix_orders_cust ON orders (customer_id) INCLUDE (amount)`)
	got := mustExec(t, d, `SELECT id FROM orders WHERE customer_id = 7`)
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("index changed result: %d vs %d rows", len(got.Rows), len(want.Rows))
	}
	if !planUses(got.Plan, "ix_orders_cust") {
		t.Fatalf("expected plan to use ix_orders_cust:\n%s", got.Plan.Explain())
	}
	if got.Measured.LogicalReads >= want.Measured.LogicalReads {
		t.Fatalf("index seek (%v reads) not cheaper than scan (%v reads)",
			got.Measured.LogicalReads, want.Measured.LogicalReads)
	}
}

func planUses(p *optimizer.Plan, index string) bool {
	for _, ix := range p.IndexesUsed {
		if strings.EqualFold(ix, index) {
			return true
		}
	}
	return false
}

func TestRangeSeek(t *testing.T) {
	d, _ := testDB(t)
	mustExec(t, d, `CREATE INDEX ix_orders_created ON orders (created)`)
	res := mustExec(t, d, `SELECT id FROM orders WHERE created >= 100 AND created < 110`)
	if len(res.Rows) != 10 {
		t.Fatalf("want 10 rows, got %d", len(res.Rows))
	}
	res = mustExec(t, d, `SELECT id FROM orders WHERE created > 100 AND created <= 110`)
	if len(res.Rows) != 10 {
		t.Fatalf("strict bounds: want 10 rows, got %d", len(res.Rows))
	}
	res = mustExec(t, d, `SELECT id FROM orders WHERE created BETWEEN 10 AND 19`)
	if len(res.Rows) != 10 {
		t.Fatalf("BETWEEN: want 10 rows, got %d", len(res.Rows))
	}
}

func TestJoin(t *testing.T) {
	d, _ := testDB(t)
	res := mustExec(t, d, `SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.region = 'east'`)
	// customers with odd id are east: 25 customers * 10 orders each.
	if len(res.Rows) != 250 {
		t.Fatalf("want 250 rows, got %d", len(res.Rows))
	}
	// With an index on the join column, NL join should win and results stay
	// identical.
	mustExec(t, d, `CREATE INDEX ix_cust_region ON customers (id) INCLUDE (region, name)`)
	res2 := mustExec(t, d, `SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.region = 'east'`)
	if len(res2.Rows) != 250 {
		t.Fatalf("want 250 rows with index, got %d", len(res2.Rows))
	}
}

func TestGroupByAndAggregates(t *testing.T) {
	d, _ := testDB(t)
	res := mustExec(t, d, `SELECT status, COUNT(*), AVG(amount) FROM orders GROUP BY status`)
	if len(res.Rows) != 2 {
		t.Fatalf("want 2 groups, got %d", len(res.Rows))
	}
	var total int64
	for _, r := range res.Rows {
		total += r[1].I
	}
	if total != 500 {
		t.Fatalf("group counts sum to %d, want 500", total)
	}
	res = mustExec(t, d, `SELECT COUNT(*), MIN(amount), MAX(amount) FROM orders`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 500 {
		t.Fatalf("scalar agg wrong: %v", res.Rows)
	}
}

func TestOrderByTop(t *testing.T) {
	d, _ := testDB(t)
	res := mustExec(t, d, `SELECT TOP 5 id, amount FROM orders ORDER BY amount DESC, id`)
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(res.Rows))
	}
	if res.Rows[0][1].F < res.Rows[4][1].F {
		t.Fatalf("not sorted descending: %v", res.Rows)
	}
}

func TestUpdateDeleteMaintainIndexes(t *testing.T) {
	d, _ := testDB(t)
	mustExec(t, d, `CREATE INDEX ix_orders_status ON orders (status)`)
	res := mustExec(t, d, `UPDATE orders SET status = 'archived' WHERE status = 'closed'`)
	if res.RowsAffected != 100 {
		t.Fatalf("want 100 updated, got %d", res.RowsAffected)
	}
	q := mustExec(t, d, `SELECT COUNT(*) FROM orders WHERE status = 'archived'`)
	if q.Rows[0][0].I != 100 {
		t.Fatalf("want 100 archived, got %v", q.Rows[0][0])
	}
	del := mustExec(t, d, `DELETE FROM orders WHERE status = 'archived'`)
	if del.RowsAffected != 100 {
		t.Fatalf("want 100 deleted, got %d", del.RowsAffected)
	}
	if n := d.RowCount("orders"); n != 400 {
		t.Fatalf("want 400 rows left, got %d", n)
	}
	q = mustExec(t, d, `SELECT COUNT(*) FROM orders WHERE status = 'archived'`)
	if q.Rows[0][0].I != 0 {
		t.Fatalf("archived rows remain after delete: %v", q.Rows[0][0])
	}
}

func TestMissingIndexEmission(t *testing.T) {
	d, _ := testDB(t)
	for i := 0; i < 10; i++ {
		mustExec(t, d, `SELECT id, amount FROM orders WHERE customer_id = 7 AND amount > 3`)
	}
	snap := d.MissingIndexDMV().Snapshot()
	if len(snap) == 0 {
		t.Fatal("expected missing-index candidates after repeated scans")
	}
	top := snap[0]
	if !strings.EqualFold(top.Candidate.Table, "orders") {
		t.Fatalf("candidate on wrong table: %+v", top.Candidate)
	}
	foundEq := false
	for _, c := range top.Candidate.Equality {
		if strings.EqualFold(c, "customer_id") {
			foundEq = true
		}
	}
	if !foundEq {
		t.Fatalf("customer_id should be an EQUALITY column: %+v", top.Candidate)
	}
	if top.Seeks < 10 {
		t.Fatalf("want >=10 seeks accumulated, got %d", top.Seeks)
	}
}

func TestMissingIndexResetOnFailoverAndSchemaChange(t *testing.T) {
	d, _ := testDB(t)
	mustExec(t, d, `SELECT id FROM orders WHERE customer_id = 3`)
	if d.MissingIndexDMV().Len() == 0 {
		t.Fatal("expected MI candidates")
	}
	d.Failover()
	if d.MissingIndexDMV().Len() != 0 {
		t.Fatal("failover must reset MI DMV")
	}
	mustExec(t, d, `SELECT id FROM orders WHERE customer_id = 3`)
	mustExec(t, d, `CREATE INDEX ix_tmp ON orders (created)`)
	if d.MissingIndexDMV().Len() != 0 {
		t.Fatal("schema change must reset MI DMV")
	}
}

func TestQueryStoreRecording(t *testing.T) {
	d, _ := testDB(t)
	for i := 0; i < 5; i++ {
		mustExec(t, d, `SELECT id FROM orders WHERE customer_id = 9`)
	}
	qs := d.QueryStore()
	if qs.Len() == 0 {
		t.Fatal("query store empty")
	}
	top := qs.TopByCPU(time.Time{}, 1)
	if len(top) != 1 {
		t.Fatal("no top query")
	}
	if top[0].Executions < 5 {
		t.Fatalf("want >=5 executions of top query, got %d", top[0].Executions)
	}
}

func TestCreateIndexLogFullAndResumable(t *testing.T) {
	clock := sim.NewClock()
	cfg := DefaultConfig("logtest", TierBasic, 7)
	cfg.LogSpaceBytes = 1 << 10 // 1KB: any real index overflows
	d := New(cfg, clock)
	mustExec(t, d, `CREATE TABLE big (id BIGINT NOT NULL, v BIGINT, PRIMARY KEY (id))`)
	for i := 0; i < 2000; i++ {
		mustExec(t, d, sprintf(`INSERT INTO big (id, v) VALUES (%d, %d)`, i, i))
	}
	def := schema.IndexDef{Name: "ix_big_v", Table: "big", KeyColumns: []string{"v"}}
	err := d.CreateIndex(def, IndexBuildOptions{Online: true})
	if !errors.Is(err, ErrLogFull) {
		t.Fatalf("want ErrLogFull, got %v", err)
	}
	if _, err := d.CreateIndexWithReport(def, IndexBuildOptions{Online: true, Resumable: true}); err != nil {
		t.Fatalf("resumable build failed: %v", err)
	}
	if _, ok := d.IndexDef("ix_big_v"); !ok {
		t.Fatal("index missing after resumable build")
	}
}

func TestDropIndexLowPriorityTimeoutAndRetry(t *testing.T) {
	d, clock := testDB(t)
	mustExec(t, d, `CREATE INDEX ix_drop ON orders (created)`)
	// A long-running query holds a shared schema lock for 10 minutes.
	d.Locks().HoldShared("orders", clock.Now().Add(10*time.Minute))
	err := d.DropIndex("ix_drop", DropIndexOptions{LowPriority: true, LockTimeout: time.Minute})
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("want ErrLockTimeout, got %v", err)
	}
	// The holder eventually releases; retry succeeds.
	clock.Advance(10 * time.Minute)
	if err := d.DropIndex("ix_drop", DropIndexOptions{LowPriority: true, LockTimeout: time.Minute}); err != nil {
		t.Fatalf("retry after release failed: %v", err)
	}
}

func TestNormalPriorityDropCreatesConvoy(t *testing.T) {
	d, clock := testDB(t)
	mustExec(t, d, `CREATE INDEX ix_convoy ON orders (created)`)
	d.Locks().HoldShared("orders", clock.Now().Add(5*time.Minute))
	done := make(chan error, 1)
	go func() {
		done <- d.DropIndex("ix_convoy", DropIndexOptions{LowPriority: false})
	}()
	// The drop enqueues FIFO; statements arriving now are blocked behind it.
	for !d.Locks().SharedBlocked("orders") {
		time.Sleep(time.Millisecond)
	}
	mustExec(t, d, `SELECT COUNT(*) FROM orders`)
	if d.ConvoyBlockedStatements() == 0 {
		t.Fatal("expected convoy-blocked statements behind normal-priority drop")
	}
	// Release the long query; the drop acquires and completes.
	clock.Advance(5 * time.Minute)
	if err := <-done; err != nil {
		t.Fatalf("drop failed: %v", err)
	}
	if d.Locks().SharedBlocked("orders") {
		t.Fatal("lock still blocked after drop completed")
	}
}

func TestDropColumnCascadesAutoIndexes(t *testing.T) {
	d, _ := testDB(t)
	auto := schema.IndexDef{Name: "auto_ix_amount", Table: "orders", KeyColumns: []string{"amount"}, AutoCreated: true}
	if err := d.CreateIndex(auto, IndexBuildOptions{Online: true}); err != nil {
		t.Fatal(err)
	}
	user := schema.IndexDef{Name: "user_ix_status", Table: "orders", KeyColumns: []string{"status"}}
	if err := d.CreateIndex(user, IndexBuildOptions{Online: true}); err != nil {
		t.Fatal(err)
	}
	// Dropping a column referenced by a user index is refused.
	if err := d.DropColumn("orders", "status"); !errors.Is(err, ErrColumnInUse) {
		t.Fatalf("want ErrColumnInUse, got %v", err)
	}
	// Dropping a column referenced only by an auto index cascades.
	if err := d.DropColumn("orders", "amount"); err != nil {
		t.Fatalf("cascade drop failed: %v", err)
	}
	if _, ok := d.IndexDef("auto_ix_amount"); ok {
		t.Fatal("auto index should have been force-dropped")
	}
	res := mustExec(t, d, `SELECT COUNT(*) FROM orders WHERE status = 'open'`)
	if res.Rows[0][0].I != 400 {
		t.Fatalf("table damaged by column drop: %v", res.Rows[0][0])
	}
}

func TestWhatIfSession(t *testing.T) {
	d, _ := testDB(t)
	stmt := `SELECT id, amount FROM orders WHERE customer_id = 12`
	base := mustExec(t, d, stmt)
	s := d.NewWhatIfSession()
	hypo := schema.IndexDef{Name: "hypo_cust", Table: "orders", KeyColumns: []string{"customer_id"}, IncludedColumns: []string{"amount"}}
	s.Catalog().AddHypothetical(hypo)
	parsed := mustParse(t, stmt)
	cost, plan, err := s.Cost(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if cost >= base.Plan.EstCost {
		t.Fatalf("hypothetical index did not reduce estimated cost: %v >= %v", cost, base.Plan.EstCost)
	}
	if !planUses(plan, "hypo_cust") {
		t.Fatalf("what-if plan should use the hypothetical index:\n%s", plan.Explain())
	}
	// The hypothetical index must never be used by real execution.
	res := mustExec(t, d, stmt)
	if planUses(res.Plan, "hypo_cust") {
		t.Fatal("executor used a hypothetical index")
	}
	// Budget exhaustion.
	s2 := d.NewWhatIfSession()
	s2.MaxOptimizerCalls = 1
	if _, _, err := s2.Cost(parsed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Cost(parsed); !errors.Is(err, ErrWhatIfBudget) {
		t.Fatalf("want ErrWhatIfBudget, got %v", err)
	}
}

func TestBulkInsertAndSource(t *testing.T) {
	d, _ := testDB(t)
	d.RegisterBulkSource("orderfeed", func(n int64) []value.Row {
		rows := make([]value.Row, n)
		for i := int64(0); i < n; i++ {
			rows[i] = value.Row{
				value.NewInt(10000 + i), value.NewInt(i % 50), value.NewString("bulk"),
				value.NewFloat(1.0), value.NewInt(i),
			}
		}
		return rows
	})
	res := mustExec(t, d, `BULK INSERT orders FROM DATASOURCE orderfeed`)
	if res.RowsAffected != 1000 {
		t.Fatalf("want 1000 bulk rows, got %d", res.RowsAffected)
	}
	q := mustExec(t, d, `SELECT COUNT(*) FROM orders WHERE status = 'bulk'`)
	if q.Rows[0][0].I != 1000 {
		t.Fatalf("bulk rows not visible: %v", q.Rows[0][0])
	}
}

func TestUsageDMVTracksSeeksAndUpdates(t *testing.T) {
	d, _ := testDB(t)
	mustExec(t, d, `CREATE INDEX ix_usage ON orders (customer_id)`)
	mustExec(t, d, `SELECT id FROM orders WHERE customer_id = 3`)
	mustExec(t, d, `UPDATE orders SET customer_id = 99 WHERE id = 1`)
	u, ok := d.UsageDMV().Usage("ix_usage")
	if !ok {
		t.Fatal("no usage row")
	}
	if u.Seeks == 0 {
		t.Fatalf("expected seeks recorded: %+v", u)
	}
	if u.Updates == 0 {
		t.Fatalf("expected maintenance updates recorded: %+v", u)
	}
}

func mustParse(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	s, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestIndexesFollowEveryChange: Indexes answers from a cached per-table
// list, which must equal a fresh read of the indexes after every kind of
// change — rows written and deleted, DDL, a rename, a dropped column that
// shifts ordinals, and a hint flag set in place.
func TestIndexesFollowEveryChange(t *testing.T) {
	d, _ := testDB(t)
	check := func(step string) {
		t.Helper()
		for _, table := range []string{"orders", "customers"} {
			var want []optimizer.IndexInfo
			for _, name := range sortedKeys(d.indexes) {
				if ix := d.indexes[name]; strings.EqualFold(ix.def.Table, table) {
					want = append(want, optimizer.IndexInfo{
						Def: ix.def, KeyOrds: ix.keyOrds, InclOrds: ix.inclOrds, Height: ix.tree.Height(),
						LeafPages: int64(ix.tree.LeafCount()), RowCount: int64(ix.tree.Len()),
					})
				}
			}
			if got := d.Indexes(table); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Indexes(%s) = %+v, want %+v", step, table, got, want)
			}
		}
	}
	check("no index")
	mustExec(t, d, `CREATE INDEX ix_status ON orders (status) INCLUDE (amount)`)
	mustExec(t, d, `CREATE INDEX ix_created ON orders (created)`)
	check("created")
	for i := 0; i < 400; i++ {
		mustExec(t, d, fmt.Sprintf(`INSERT INTO orders (id, customer_id, status, amount, created) VALUES (%d, 1, 'new', 1.5, %d)`, 10000+i, i))
	}
	check("inserted")
	mustExec(t, d, `DELETE FROM orders WHERE id >= 10200`)
	check("deleted")
	if err := d.MarkIndexHinted("ix_created"); err != nil {
		t.Fatal(err)
	}
	check("hinted")
	if err := d.RenameColumn("orders", "amount", "total"); err != nil {
		t.Fatal(err)
	}
	check("renamed")
	if err := d.DropColumn("orders", "customer_id"); err != nil {
		t.Fatal(err)
	}
	check("column dropped")
	if err := d.DropIndex("ix_status", DropIndexOptions{}); err != nil {
		t.Fatal(err)
	}
	check("index dropped")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
