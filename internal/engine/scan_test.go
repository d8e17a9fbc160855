package engine

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"autoindex/internal/optimizer"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/value"
)

// scanDB builds a clustered table c and a heap table h holding the same
// n rows (id, g = id%10, v = 3*id, s), and a 10-row dims table to join
// against. A third copy, the heap w, declares s 400 bytes wide, so that
// its narrow indexes ix_w_g (g) INCLUDE (v) and ix_w_id (id) win over a
// scan: a covering scan and a lookup seek.
func scanDB(t *testing.T, n int64) *Database {
	t.Helper()
	d := New(DefaultConfig("scandb", TierStandard, 7), sim.NewClock())
	mustExec(t, d, `CREATE TABLE c (id BIGINT NOT NULL, g BIGINT, v BIGINT, s VARCHAR, PRIMARY KEY (id))`)
	mustExec(t, d, `CREATE TABLE h (id BIGINT NOT NULL, g BIGINT, v BIGINT, s VARCHAR)`)
	mustExec(t, d, `CREATE TABLE dims (id BIGINT NOT NULL, label VARCHAR, PRIMARY KEY (id))`)
	if err := d.CreateTable(schema.Table{Name: "w", Columns: []schema.Column{
		{Name: "id", Kind: value.Int}, {Name: "g", Kind: value.Int, Nullable: true},
		{Name: "v", Kind: value.Int, Nullable: true}, {Name: "s", Kind: value.String, Nullable: true, AvgWidth: 400},
	}}); err != nil {
		t.Fatal(err)
	}
	next := map[string]int64{}
	feed := func(table string) func(int64) []value.Row {
		return func(batch int64) []value.Row {
			if left := n - next[table]; batch > left {
				batch = left
			}
			rows := make([]value.Row, batch)
			for i := range rows {
				id := next[table]
				next[table]++
				rows[i] = value.Row{value.NewInt(id), value.NewInt(id % 10), value.NewInt(id * 3), value.NewString("row")}
			}
			return rows
		}
	}
	d.RegisterBulkSource("cfeed", feed("c"))
	d.RegisterBulkSource("hfeed", feed("h"))
	d.RegisterBulkSource("wfeed", feed("w"))
	for next["c"] < n {
		mustExec(t, d, `BULK INSERT c FROM DATASOURCE cfeed`)
		mustExec(t, d, `BULK INSERT h FROM DATASOURCE hfeed`)
		mustExec(t, d, `BULK INSERT w FROM DATASOURCE wfeed`)
	}
	for i := 0; i < 10; i++ {
		mustExec(t, d, sprintf(`INSERT INTO dims (id, label) VALUES (%d, 'd%d')`, i, i))
	}
	mustExec(t, d, `CREATE INDEX ix_w_g ON w (g) INCLUDE (v)`)
	mustExec(t, d, `CREATE INDEX ix_w_id ON w (id)`)
	d.RebuildAllStats()
	return d
}

// meteringCases are TestScanMeteringFrozen's statements, run in order on
// scanDB(t, 3000).
var meteringCases = []struct {
	sql   string
	index string // the plan must use it; "" for the sequential scans
	reads float64
	cpu   float64
	rows  int64
}{
	{`SELECT * FROM c`, "", 18.647058823530148, 13.626205102683226, 3000},
	{`SELECT * FROM h`, "", 18.647058823530148, 11.447861278972104, 3000},
	{`SELECT id FROM c WHERE g = 3`, "", 18.647058823530148, 11.886556686671037, 300},
	{`SELECT id FROM h WHERE g = 3`, "", 18.647058823530148, 16.456050067375077, 300},
	{`SELECT TOP 10 * FROM c`, "", 1.0588235294117645, 0.054688713965438694, 10},
	{`SELECT TOP 10 * FROM h`, "", 1.0588235294117645, 0.064756909349274333, 10},
	{`SELECT d.label FROM dims d JOIN c ON d.id = c.g WHERE d.label = 'd3'`, "", 19.686121323530148, 27.070341489252975, 300},
	{`SELECT d.label FROM dims d JOIN h ON d.id = h.g WHERE d.label = 'd3'`, "", 19.686121323530148, 25.528678158913088, 300},
	{`UPDATE c SET v = 1 WHERE g = 3`, "", 918.64705882353019, 251.47664399847537, 300},
	{`UPDATE h SET v = 1 WHERE g = 3`, "", 318.64705882353013, 89.907399789573532, 300},
	{`DELETE FROM c WHERE g = 4`, "", 918.64705882353019, 219.88256688466743, 300},
	{`DELETE FROM h WHERE g = 4`, "", 318.64705882353013, 90.970905038125309, 300},
	{`CREATE INDEX ix_c_gv ON c (g, v)`, "", 0, 0, 0},
	{`CREATE INDEX ix_c_v ON c (v) INCLUDE (g)`, "", 0, 0, 0},
	{`CREATE INDEX ix_h_v ON h (v)`, "", 0, 0, 0},
	// Covering seek: g = 5 prefix, strict lower bound v > 2415 (an
	// entry equal to it exists and is rejected), residual on the
	// locator.
	{`SELECT id, v FROM c WHERE g = 5 AND v > 2415 AND id <> 905`, "ix_c_gv", 9.6299999999999919, 1.5342270004916656, 218},
	// Lookup seeks, heap and clustered, each with a residual.
	{`SELECT * FROM h WHERE v >= 30 AND v < 45 AND g = 1`, "ix_h_v", 9.1244444444444444, 0.20566275418450716, 1},
	{`SELECT * FROM c WHERE v >= 8991 AND id <> 2998`, "ix_c_v", 21.093333333333334, 0.57461742163423013, 2},
	// Clustered range seek with a strict upper bound and a residual.
	{`SELECT * FROM c WHERE id < 50 AND g = 7`, "pk_c", 4.584444444444447, 0.31367754644007512, 5},
	// NL-join inner seek, one probe per outer row.
	{`SELECT d.label, c.v FROM dims d JOIN c ON d.id = c.g WHERE d.label = 'd5' AND c.v > 100`, "ix_c_gv", 13.069062499999925, 2.3472319603618259, 297},
	// GROUP BY over a covering scan whose residual rejects some rows.
	{`SELECT g, COUNT(*) FROM w WHERE v > 300 GROUP BY g`, "ix_w_g", 90.000000000002643, 22.989575750556252, 10},
}

// TestScanMeteringFrozen pins what each access path charges and returns,
// per table kind and per consumer shape: the logical reads, the noisy CPU
// (which pins the order CPU units are summed in, to the last bit) and the
// row count. The sequential-scan rows were recorded from the
// materialising scan; the rows after the CREATE INDEX from the stacks of
// a source and one filter per test that the single access source
// replaced: covering, lookup, clustered range and NL-join inner seeks,
// with their strict-bound and residual tests, and a GROUP BY over a
// filtered covering scan.
func TestScanMeteringFrozen(t *testing.T) {
	d := scanDB(t, 3000)
	for _, tc := range meteringCases {
		res := mustExec(t, d, tc.sql)
		if res.Plan == nil {
			continue // DDL
		}
		rows := res.RowsAffected
		if res.Columns != nil {
			rows = int64(len(res.Rows))
		}
		m := res.Measured
		if m.LogicalReads != tc.reads || m.CPUMillis != tc.cpu || rows != tc.rows {
			t.Errorf("%s: logical reads %.17g cpu %.17g rows %d, frozen at %.17g, %.17g and %d\n%s",
				tc.sql, m.LogicalReads, m.CPUMillis, rows, tc.reads, tc.cpu, tc.rows, res.Plan.Explain())
		}
		if tc.index != "" && !planUses(res.Plan, tc.index) {
			t.Errorf("%s: plan does not use %s\n%s", tc.sql, tc.index, res.Plan.Explain())
		}
	}
}

// TestWriteThroughIndexHoldingEveryColumn: a write reads base rows, so
// it reaches them through a secondary index only by lookups, even when
// the index's keys and INCLUDEs hold every column. Read as a covering
// entry, the row comes in index order and is written back scrambled.
func TestWriteThroughIndexHoldingEveryColumn(t *testing.T) {
	for _, tc := range []struct{ table, index string }{
		{"c", `CREATE INDEX ix_all ON c (g) INCLUDE (v, s)`},
		{"h", `CREATE INDEX ix_all ON h (g) INCLUDE (id, v, s)`},
	} {
		d := scanDB(t, 3000)
		mustExec(t, d, tc.index)
		// check reads every row back against scanDB's rule, with v = 1
		// where g = 3 and no row left where g = deleted.
		check := func(after string, affected, deleted int64, wantRows int) {
			t.Helper()
			if affected != 300 {
				t.Errorf("%s %s: %d rows affected, want 300", tc.table, after, affected)
			}
			res := mustExec(t, d, `SELECT id, g, v, s FROM `+tc.table)
			seen := map[int64]bool{}
			for _, r := range res.Rows {
				id := r[0].I
				v := id * 3
				if id%10 == 3 {
					v = 1
				}
				if r[1].I != id%10 || r[2].I != v || r[3].S != "row" || id%10 == deleted || seen[id] {
					t.Fatalf("%s %s: row %v, want (%d, %d, %d, row) once", tc.table, after, r, id, id%10, v)
				}
				seen[id] = true
			}
			if len(seen) != wantRows {
				t.Errorf("%s %s: %d rows, want %d", tc.table, after, len(seen), wantRows)
			}
		}
		res := mustExec(t, d, `UPDATE `+tc.table+` SET v = 1 WHERE g = 3`)
		check("after UPDATE", res.RowsAffected, -1, 3000)
		res = mustExec(t, d, `DELETE FROM `+tc.table+` WHERE g = 4`)
		check("after DELETE", res.RowsAffected, 4, 2700)
	}
}

// TestStarColumnsIndependentOfIndexes: SELECT * returns the table's
// declared columns in declared order, whichever access path serves it —
// including a covering index, whose entries lay the columns out as keys,
// includes, then the locator — and each FROM table's columns in FROM
// order across a join.
func TestStarColumnsIndependentOfIndexes(t *testing.T) {
	d := scanDB(t, 3000)
	want := func(sql, index, cols string) {
		t.Helper()
		res := mustExec(t, d, sql)
		if index != "" && !planUses(res.Plan, index) {
			t.Errorf("%s: plan does not use %s\n%s", sql, index, res.Plan.Explain())
		}
		if got := fmt.Sprint(res.Columns); got != cols {
			t.Errorf("%s: columns %s, want %s\n%s", sql, got, cols, res.Plan.Explain())
		}
		for _, r := range res.Rows {
			if len(r) != len(res.Columns) {
				t.Fatalf("%s: row %v under columns %v", sql, r, res.Columns)
			}
		}
		if len(res.Rows) > 0 && len(res.Columns) == 4 {
			if r := res.Rows[0]; r[1].I != r[0].I%10 || r[2].I != 3*r[0].I || r[3].S != "row" {
				t.Errorf("%s: row %v, want (id, id %% 10, 3 id, row)", sql, r)
			}
		}
	}
	want(`SELECT * FROM h WHERE g = 7`, "", "[id g v s]")
	want(`SELECT * FROM c WHERE g = 7`, "", "[id g v s]")
	mustExec(t, d, `CREATE INDEX ib ON h (g) INCLUDE (id, v, s)`)
	mustExec(t, d, `CREATE INDEX ic ON c (g) INCLUDE (v, s)`)
	want(`SELECT * FROM h WHERE g = 7`, "ib", "[id g v s]")
	want(`SELECT * FROM c WHERE g = 7`, "ic", "[id g v s]")
	want(`SELECT * FROM dims d JOIN c ON d.id = c.g WHERE d.label = 'd3'`, "", "[id label id g v s]")
}

// TestTopOneScanAllocsIndependentOfTableSize holds the scan to streaming:
// TOP 1 over a 50 000-row table allocates what it does over a 500-row
// one, clustered or heap, because nothing is read past the first row.
func TestTopOneScanAllocsIndependentOfTableSize(t *testing.T) {
	small, big := scanDB(t, 500), scanDB(t, 50000)
	for _, table := range []string{"c", "h"} {
		stmt := mustParse(t, `SELECT TOP 1 * FROM `+table)
		allocs := func(d *Database) float64 {
			return testing.AllocsPerRun(20, func() {
				if res, err := d.ExecStmt(stmt); err != nil || len(res.Rows) != 1 {
					t.Fatalf("TOP 1 over %s: %v rows, err %v", table, res, err)
				}
			})
		}
		if s, b := allocs(small), allocs(big); b > s+2 || b > 100 {
			t.Errorf("TOP 1 over %s: %.0f allocations at 50 000 rows, %.0f at 500", table, b, s)
		}
	}
}

// TestRejectedRowsAllocateNothing holds every access path to building a
// row only once it passed the access's tests, and every operator to
// building one only for a consumer that keeps it. A scan whose residual
// rejects every row allocates the same at 500 and 50 000 rows, heap or
// covering, and a lookup seek the same whether it rejects 6 rows or 60.
// HashAgg builds its group key in a reused buffer and reads heap rows as
// stored, so a GROUP BY over a fixed number of groups allocates the same
// at any input size; so does a scan whose rows are discarded. A covering
// entry is copied only for Sort or a hash-join build, and a join writes
// its rows into one buffer. A write path does not copy the rows it
// matched. A clustered point seek gains nothing from any of this; it is
// held at what planning it without per-index allocation brought it to.
func TestRejectedRowsAllocateNothing(t *testing.T) {
	// One field more puts the access source in the next size class, which
	// every statement pays for.
	if n := unsafe.Sizeof(accessSource{}); n > 96 {
		t.Errorf("accessSource is %d bytes, held at 96", n)
	}
	small, mid, big := scanDB(t, 500), scanDB(t, 3000), scanDB(t, 50000)
	allocs := func(d *Database, sql string, discard bool) float64 {
		stmt := mustParse(t, sql)
		return testing.AllocsPerRun(10, func() {
			if _, err := d.ExecStmtWith(stmt, ExecOptions{DiscardRows: discard}); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		})
	}
	for _, tc := range []struct {
		sql     string
		discard bool
		bound   float64 // at 3 000 rows
		flat    bool    // the same count at 500 and 50 000 rows
	}{
		{`SELECT id FROM h WHERE v = -1`, false, 100, true},
		{`SELECT g FROM w WHERE v = -1`, false, 100, true},
		{`SELECT g, COUNT(*) FROM c GROUP BY g`, false, 200, true},
		{`SELECT g, COUNT(*) FROM h GROUP BY g`, false, 200, true},
		{`SELECT v FROM h`, true, 100, true},
		{`SELECT d.label FROM dims d JOIN h ON d.id = h.g WHERE d.label = 'd3'`, false, 600, false},
		{`SELECT d.label FROM dims d JOIN c ON d.id = c.g WHERE d.label = 'd3'`, false, 600, false},
		{`SELECT TOP 5 id FROM h WHERE g = 3 ORDER BY v`, false, 100, false},
		{`SELECT g, v FROM w WHERE g = 3`, false, 400, false},
	} {
		if m := allocs(mid, tc.sql, tc.discard); m > tc.bound {
			t.Errorf("%s: %.0f allocations at 3 000 rows, bound %.0f", tc.sql, m, tc.bound)
		}
		if !tc.flat {
			continue
		}
		if s, b := allocs(small, tc.sql, tc.discard), allocs(big, tc.sql, tc.discard); s != b {
			t.Errorf("%s: %.0f allocations at 500 rows, %.0f at 50 000", tc.sql, s, b)
		}
	}
	few := allocs(mid, `SELECT * FROM w WHERE id < 6 AND v = -1`, false)
	if many := allocs(mid, `SELECT * FROM w WHERE id < 60 AND v = -1`, false); many > few {
		t.Errorf("lookup seek: %.0f allocations rejecting 60 rows, %.0f rejecting 6", many, few)
	}
	if n := allocs(mid, `SELECT * FROM c WHERE id = 7`, false); n > 36 {
		t.Errorf("clustered point seek: %.0f allocations, held at 36", n)
	}
	if n := allocs(mid, `UPDATE c SET v = 1 WHERE g = 3`, false); n > 1000 {
		t.Errorf("UPDATE of 300 rows: %.0f allocations, bound 1 000", n)
	}
}

// TestReusedRowsNeverEscape checks the results of the plan shapes in
// which a source hands out a row it reuses against scanDB's rule: a hash
// join and a nested-loops join with a heap on the probe or outer side,
// ORDER BY over a join and over a covering scan (Sort keeps its rows),
// GROUP BY over a covering scan, and self-joins, where both sides read
// the same index.
func TestReusedRowsNeverEscape(t *testing.T) {
	const n = 300
	d := scanDB(t, n)
	type row = []int64
	var ids []int64
	for id := int64(0); id < n; id++ {
		ids = append(ids, id)
	}
	for _, tc := range []struct {
		sql     string
		kind    optimizer.NodeKind // the plan must contain it
		ordered bool
		want    func() []row
	}{
		{`SELECT a.id, b.id FROM h a JOIN h b ON a.g = b.g WHERE a.id < 20`, optimizer.KindHashJoin, false, func() (out []row) {
			for _, a := range ids[:20] {
				for _, b := range ids {
					if a%10 == b%10 {
						out = append(out, row{a, b})
					}
				}
			}
			return out
		}},
		{`SELECT h.id, w.v FROM h JOIN w ON h.g = w.g WHERE h.id < 5`, optimizer.KindNLJoin, false, func() (out []row) {
			for _, a := range ids[:5] {
				for _, b := range ids {
					if a%10 == b%10 {
						out = append(out, row{a, 3 * b})
					}
				}
			}
			return out
		}},
		{`SELECT a.id, b.v FROM h a JOIN h b ON a.g = b.g WHERE a.id < 3 ORDER BY b.v DESC, a.id`, optimizer.KindSort, true, func() (out []row) {
			for i := len(ids) - 1; i >= 0; i-- {
				for _, a := range ids[:3] {
					if a%10 == ids[i]%10 {
						out = append(out, row{a, 3 * ids[i]})
					}
				}
			}
			return out
		}},
		{`SELECT g, v FROM w WHERE v < 300 ORDER BY v DESC`, optimizer.KindSort, true, func() (out []row) {
			for id := int64(99); id >= 0; id-- {
				out = append(out, row{id % 10, 3 * id})
			}
			return out
		}},
		{`SELECT g, MIN(v), MAX(v), COUNT(*) FROM w WHERE v > 30 GROUP BY g`, optimizer.KindIndexScan, false, func() (out []row) {
			for g := int64(0); g < 10; g++ {
				lo := g // the group's first id with v > 30
				for lo*3 <= 30 {
					lo += 10
				}
				out = append(out, row{g, 3 * lo, 3 * (n - 10 + g), (n-lo-1)/10 + 1})
			}
			return out
		}},
		{`SELECT a.v, b.v FROM w a JOIN w b ON a.v = b.v WHERE a.g = 3`, optimizer.KindHashJoin, false, func() (out []row) {
			for _, id := range ids {
				if id%10 == 3 {
					out = append(out, row{3 * id, 3 * id})
				}
			}
			return out
		}},
	} {
		res := mustExec(t, d, tc.sql)
		if !planHas(res.Plan.Root, tc.kind) {
			t.Errorf("%s: plan has no %v\n%s", tc.sql, tc.kind, res.Plan.Explain())
		}
		var want []value.Row
		for _, r := range tc.want() {
			vr := make(value.Row, len(r))
			for i, v := range r {
				vr[i] = value.NewInt(v)
			}
			want = append(want, vr)
		}
		got, exp := canonicalize(res.Rows, tc.ordered), canonicalize(want, tc.ordered)
		if strings.Join(got, "\n") != strings.Join(exp, "\n") {
			t.Errorf("%s: %d rows, want %d\n%s\nfirst rows %v", tc.sql, len(got), len(exp), res.Plan.Explain(), got[:min(len(got), 5)])
		}
	}
}

func planHas(n *optimizer.Node, kind optimizer.NodeKind) bool {
	if n.Kind == kind {
		return true
	}
	for _, c := range n.Children {
		if planHas(c, kind) {
			return true
		}
	}
	return false
}

// TestDiscardRowsChangesNothingTheTunerSees runs TestScanMeteringFrozen's
// statements on two copies of scanDB, one discarding every result and one
// collecting it. Every statement's measurement is bit-equal, and the two
// databases snapshot to the same bytes: Query Store and both DMVs are in
// the snapshot.
func TestDiscardRowsChangesNothingTheTunerSees(t *testing.T) {
	discard, collect := scanDB(t, 3000), scanDB(t, 3000)
	for _, tc := range meteringCases {
		stmt := mustParse(t, tc.sql)
		a, err := discard.ExecStmtWith(stmt, ExecOptions{DiscardRows: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		b := mustExec(t, collect, tc.sql)
		if a.Measured != b.Measured || a.Rows != nil || fmt.Sprint(a.Columns) != fmt.Sprint(b.Columns) {
			t.Errorf("%s: discarding measured %+v, %d rows, columns %v; collecting %+v, columns %v",
				tc.sql, a.Measured, len(a.Rows), a.Columns, b.Measured, b.Columns)
		}
	}
	if collect.MissingIndexDMV().Len() == 0 {
		t.Fatal("no missing-index candidates to compare")
	}
	if !bytes.Equal(snapshotOf(discard), snapshotOf(collect)) {
		t.Error("discarding and collecting databases snapshot differently")
	}
}
