package engine

import (
	"testing"

	"autoindex/internal/sim"
	"autoindex/internal/value"
)

// scanDB builds a clustered table c and a heap table h holding the same
// n rows (id, g = id%10, v, s), and a 10-row dims table to join against.
func scanDB(t *testing.T, n int64) *Database {
	t.Helper()
	d := New(DefaultConfig("scandb", TierStandard, 7), sim.NewClock())
	mustExec(t, d, `CREATE TABLE c (id BIGINT NOT NULL, g BIGINT, v BIGINT, s VARCHAR, PRIMARY KEY (id))`)
	mustExec(t, d, `CREATE TABLE h (id BIGINT NOT NULL, g BIGINT, v BIGINT, s VARCHAR)`)
	mustExec(t, d, `CREATE TABLE dims (id BIGINT NOT NULL, label VARCHAR, PRIMARY KEY (id))`)
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
	for next["c"] < n {
		mustExec(t, d, `BULK INSERT c FROM DATASOURCE cfeed`)
		mustExec(t, d, `BULK INSERT h FROM DATASOURCE hfeed`)
	}
	for i := 0; i < 10; i++ {
		mustExec(t, d, sprintf(`INSERT INTO dims (id, label) VALUES (%d, 'd%d')`, i, i))
	}
	d.RebuildAllStats()
	return d
}

// TestScanMeteringFrozen pins what a sequential scan charges and returns,
// per table kind and per consumer shape, to the values the materialising
// scan produced: the streaming source must meter a row when it is
// consumed exactly as the copy-then-iterate source did.
func TestScanMeteringFrozen(t *testing.T) {
	d := scanDB(t, 3000)
	cases := []struct {
		sql   string
		reads float64
		rows  int64
	}{
		{`SELECT * FROM c`, 18.647058823530148, 3000},
		{`SELECT * FROM h`, 18.647058823530148, 3000},
		{`SELECT id FROM c WHERE g = 3`, 18.647058823530148, 300},
		{`SELECT id FROM h WHERE g = 3`, 18.647058823530148, 300},
		{`SELECT TOP 10 * FROM c`, 1.0588235294117645, 10},
		{`SELECT TOP 10 * FROM h`, 1.0588235294117645, 10},
		{`SELECT d.label FROM dims d JOIN c ON d.id = c.g WHERE d.label = 'd3'`, 19.686121323530148, 300},
		{`SELECT d.label FROM dims d JOIN h ON d.id = h.g WHERE d.label = 'd3'`, 19.686121323530148, 300},
		{`UPDATE c SET v = 1 WHERE g = 3`, 918.64705882353019, 300},
		{`UPDATE h SET v = 1 WHERE g = 3`, 318.64705882353013, 300},
		{`DELETE FROM c WHERE g = 4`, 918.64705882353019, 300},
		{`DELETE FROM h WHERE g = 4`, 318.64705882353013, 300},
	}
	for _, tc := range cases {
		res := mustExec(t, d, tc.sql)
		rows := res.RowsAffected
		if res.Columns != nil {
			rows = int64(len(res.Rows))
		}
		if res.Measured.LogicalReads != tc.reads || rows != tc.rows {
			t.Errorf("%s: logical reads %.17g rows %d, frozen at %.17g and %d\n%s",
				tc.sql, res.Measured.LogicalReads, rows, tc.reads, tc.rows, res.Plan.Explain())
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
