package engine

import (
	"testing"

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
	cases := []struct {
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
	for _, tc := range cases {
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
// row only once it passed the access's tests: a scan whose residual
// rejects every row allocates the same at 500 and 50 000 rows, heap or
// covering, and a lookup seek the same whether it rejects 6 rows or 60.
// HashAgg builds its group key in a reused buffer, so a GROUP BY over a
// fixed number of groups allocates the same at any input size, and a
// write path does not copy the rows it matched. A clustered point seek
// gains nothing from any of this and is held where it was.
func TestRejectedRowsAllocateNothing(t *testing.T) {
	small, mid, big := scanDB(t, 500), scanDB(t, 3000), scanDB(t, 50000)
	allocs := func(d *Database, sql string) float64 {
		stmt := mustParse(t, sql)
		return testing.AllocsPerRun(10, func() {
			if _, err := d.ExecStmt(stmt); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		})
	}
	for _, tc := range []struct {
		sql   string
		bound float64 // at 3 000 rows
	}{
		{`SELECT id FROM h WHERE v = -1`, 100},
		{`SELECT g FROM w WHERE v = -1`, 100},
		{`SELECT g, COUNT(*) FROM c GROUP BY g`, 200},
	} {
		s, m, b := allocs(small, tc.sql), allocs(mid, tc.sql), allocs(big, tc.sql)
		if m > tc.bound || b > s+2 {
			t.Errorf("%s: %.0f allocations at 500 rows, %.0f at 3 000 (bound %.0f), %.0f at 50 000",
				tc.sql, s, m, tc.bound, b)
		}
	}
	few := allocs(mid, `SELECT * FROM w WHERE id < 6 AND v = -1`)
	if many := allocs(mid, `SELECT * FROM w WHERE id < 60 AND v = -1`); many > few {
		t.Errorf("lookup seek: %.0f allocations rejecting 60 rows, %.0f rejecting 6", many, few)
	}
	if n := allocs(mid, `SELECT * FROM c WHERE id = 7`); n > 74 {
		t.Errorf("clustered point seek: %.0f allocations, held at 74", n)
	}
	if n := allocs(mid, `UPDATE c SET v = 1 WHERE g = 3`); n > 1000 {
		t.Errorf("UPDATE of 300 rows: %.0f allocations, bound 1 000", n)
	}
}
