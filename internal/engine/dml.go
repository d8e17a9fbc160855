package engine

import (
	"fmt"
	"strings"

	"autoindex/internal/executor"
	"autoindex/internal/optimizer"
	"autoindex/internal/sqlparser"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// execInsert inserts literal rows, maintaining every secondary index (the
// maintenance cost the MI recommender famously ignores, §8.1).
func (d *Database) execInsert(s *sqlparser.InsertStmt, meter *executor.Meter) (int64, error) {
	t, ok := d.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	ords, err := insertOrdinals(t, s.Columns)
	if err != nil {
		return 0, err
	}
	pk, indexes := t.pkOrdinals(), t.indexes
	var n int64
	for _, vals := range s.Rows {
		if len(vals) != len(ords) {
			return n, fmt.Errorf("engine: INSERT expects %d values, got %d", len(ords), len(vals))
		}
		row := make(value.Row, len(t.def.Columns))
		for i := range row {
			row[i] = value.NewNull()
		}
		for i, o := range ords {
			row[o] = coerce(vals[i], t.def.Columns[o].Kind)
		}
		if err := d.insertRowLocked(t, pk, indexes, row, meter); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func insertOrdinals(t *tableData, cols []string) ([]int, error) {
	if len(cols) == 0 {
		ords := make([]int, len(t.def.Columns))
		for i := range ords {
			ords[i] = i
		}
		return ords, nil
	}
	ords := make([]int, len(cols))
	for i, c := range cols {
		o := t.def.ColumnIndex(c)
		if o < 0 {
			return nil, fmt.Errorf("engine: column %q not in table %q", c, t.def.Name)
		}
		ords[i] = o
	}
	return ords, nil
}

// coerce converts compatible literal kinds to the column's kind.
func coerce(v value.Value, k value.Kind) value.Value {
	if v.IsNull() || v.K == k {
		return v
	}
	switch {
	case v.K == value.Int && k == value.Float:
		return value.NewFloat(float64(v.I))
	case v.K == value.Float && k == value.Int:
		return value.NewInt(int64(v.F))
	case v.K == value.Int && k == value.Time:
		return value.Value{K: value.Time, I: v.I}
	case v.K == value.Int && k == value.Bool:
		return value.NewBool(v.I != 0)
	default:
		return v
	}
}

// insertRowLocked inserts one fully-formed row, given the table's
// primary-key ordinals and its indexes in name order; caller holds
// d.mu.
func (d *Database) insertRowLocked(t *tableData, pk []int, indexes []*indexData, row value.Row, meter *executor.Meter) error {
	var loc value.Key
	if t.clustered != nil {
		key := make(value.Key, len(pk))
		for i, o := range pk {
			if row[o].IsNull() {
				return fmt.Errorf("engine: NULL primary key in table %q", t.def.Name)
			}
			key[i] = row[o]
		}
		if _, exists := t.clustered.Get(key); exists {
			return fmt.Errorf("engine: duplicate primary key %v in table %q", key, t.def.Name)
		}
		t.clustered.Insert(key, row)
		meter.ChargePageWrites(float64(t.clustered.Height()))
		loc = key
	} else {
		rid := t.heap.Insert(row)
		meter.ChargePageWrites(1)
		loc = value.Key{value.NewInt(int64(rid))}
	}
	t.rowCount++
	for _, ix := range indexes {
		k, p := ix.entryFor(row, loc)
		ix.tree.Insert(k, p)
		meter.ChargePageWrites(float64(ix.tree.Height()))
		meter.ChargeRows(1)
		d.usage.RecordUpdate(ix.def.Name, t.def.Name)
	}
	return nil
}

// execBulkInsert loads rows from a registered bulk source.
func (d *Database) execBulkInsert(s *sqlparser.BulkInsertStmt, meter *executor.Meter) (int64, error) {
	t, ok := d.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	src, ok := d.bulkSources[strings.ToLower(s.Source)]
	if !ok {
		return 0, fmt.Errorf("engine: no bulk data source %q registered", s.Source)
	}
	rows := src(s.RowEstimate)
	pk, indexes := t.pkOrdinals(), t.indexes
	var n int64
	for _, row := range rows {
		if len(row) != len(t.def.Columns) {
			return n, fmt.Errorf("engine: bulk row width %d != table width %d", len(row), len(t.def.Columns))
		}
		for i := range row {
			row[i] = coerce(row[i], t.def.Columns[i].Kind)
		}
		if err := d.insertRowLocked(t, pk, indexes, row, meter); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// matchedRow pairs a base row with its locator.
type matchedRow struct {
	row value.Row
	loc value.Key
	rid storage.RID
}

// collectMatches runs the access child of a write plan and extracts base
// rows + locators. The rows are the source's own, not copies: no one
// writes a row the source hands out, and execUpdate clones one before it
// modifies it. A heap row's RID comes from the source that read it.
func (d *Database) collectMatches(access *optimizer.Node, t *tableData, pk []int, meter *executor.Meter) ([]matchedRow, error) {
	src, _, err := d.compileAccess(access, meter)
	if err != nil {
		return nil, err
	}
	var out []matchedRow
	for {
		row, rid, ok := src.next()
		if !ok {
			break
		}
		m := matchedRow{row: row, rid: rid}
		if t.clustered != nil {
			m.loc = make(value.Key, len(pk))
			for i, o := range pk {
				m.loc[i] = row[o]
			}
		} else {
			m.loc = value.Key{value.NewInt(int64(rid))}
		}
		out = append(out, m)
	}
	return out, nil
}

// execUpdate applies SET assignments to matching rows, maintaining only
// the indexes that contain a modified column.
func (d *Database) execUpdate(root *optimizer.Node, s *sqlparser.UpdateStmt, meter *executor.Meter) (int64, error) {
	t, ok := d.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	pk := t.pkOrdinals()
	matches, err := d.collectMatches(root.Children[0], t, pk, meter)
	if err != nil {
		return 0, err
	}
	setOrds := make([]int, len(s.Set))
	for i, a := range s.Set {
		o := t.def.ColumnIndex(a.Column)
		if o < 0 {
			return 0, fmt.Errorf("engine: column %q not in table %q", a.Column, t.def.Name)
		}
		setOrds[i] = o
	}
	pkTouched := false
	for _, a := range s.Set {
		for _, col := range t.def.PrimaryKey {
			if strings.EqualFold(a.Column, col) {
				pkTouched = true
			}
		}
	}
	// Index maintenance. When the PK (locator) changes, every index entry
	// moves; otherwise only the indexes holding a modified column do.
	var affected []*indexData
	for _, ix := range t.indexes {
		for _, a := range s.Set {
			if pkTouched || ix.def.HasColumn(a.Column) {
				affected = append(affected, ix)
				break
			}
		}
	}
	var n int64
	for _, m := range matches {
		newRow := m.row.Clone()
		for i, a := range s.Set {
			newRow[setOrds[i]] = coerce(a.Val, t.def.Columns[setOrds[i]].Kind)
		}
		newLoc := m.loc
		// Base write.
		if t.clustered != nil {
			if pkTouched {
				t.clustered.Delete(m.loc)
				k := make(value.Key, len(pk))
				for i, o := range pk {
					k[i] = newRow[o]
				}
				if _, exists := t.clustered.Get(k); exists {
					return n, fmt.Errorf("engine: duplicate primary key %v on update", k)
				}
				t.clustered.Insert(k, newRow)
				newLoc = k
				meter.ChargePageWrites(2 * float64(t.clustered.Height()))
			} else {
				t.clustered.Insert(m.loc, newRow)
				meter.ChargePageWrites(float64(t.clustered.Height()))
			}
		} else {
			if err := t.heap.Update(m.rid, newRow); err != nil {
				return n, err
			}
			meter.ChargePageWrites(1)
		}
		for _, ix := range affected {
			ix.tree.Delete(ix.keyFor(m.row, m.loc))
			newK, newP := ix.entryFor(newRow, newLoc)
			ix.tree.Insert(newK, newP)
			meter.ChargePageWrites(2 * float64(ix.tree.Height()))
			meter.ChargeRows(1)
			d.usage.RecordUpdate(ix.def.Name, t.def.Name)
		}
		n++
	}
	return n, nil
}

// execDelete removes matching rows and all their index entries.
func (d *Database) execDelete(root *optimizer.Node, s *sqlparser.DeleteStmt, meter *executor.Meter) (int64, error) {
	t, ok := d.tables[strings.ToLower(s.Table)]
	if !ok {
		return 0, fmt.Errorf("engine: unknown table %q", s.Table)
	}
	matches, err := d.collectMatches(root.Children[0], t, t.pkOrdinals(), meter)
	if err != nil {
		return 0, err
	}
	indexes := t.indexes
	var n int64
	for _, m := range matches {
		if t.clustered != nil {
			t.clustered.Delete(m.loc)
			meter.ChargePageWrites(float64(t.clustered.Height()))
		} else {
			if err := t.heap.Delete(m.rid); err != nil {
				continue
			}
			meter.ChargePageWrites(1)
		}
		t.rowCount--
		for _, ix := range indexes {
			ix.tree.Delete(ix.keyFor(m.row, m.loc))
			meter.ChargePageWrites(float64(ix.tree.Height()))
			meter.ChargeRows(1)
			d.usage.RecordUpdate(ix.def.Name, t.def.Name)
		}
		n++
	}
	return n, nil
}
