package engine

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/schema"
	"autoindex/internal/stats"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// SharedCatalog holds the immutable, archetype-level objects that every
// tenant stamped from the same template shares instead of rebuilding:
// canonical table definitions, base-data rows in stamp order, the trees
// and heaps built over them once, and column statistics built once over
// the template data. A stamp aliases the definitions, rows and statistics
// and clones every tree: the nodes are the tenant's own, the keys and
// payload rows (index entries too) stay shared, because no code writes
// one in place. Any tenant-local write, DDL or statistics refresh
// replaces only that tenant's node or pointer, so a 100k-tenant fleet
// pays for each archetype's data once. Nothing writes the catalog once
// built, so tenants stamp from it in parallel.
//
// The catalog also powers hibernation: rows physically shared with the
// catalog are serialized as (table, row-index) references rather than
// values, keeping snapshots compact and re-aliasing the shared storage on
// rehydrate. Index entries are written inline.
type SharedCatalog struct {
	tables  map[string]*tableData         // lower(name)
	indexes []*indexData                  // stamp order
	stats   map[string]*stats.ColumnStats // statKey
	rows    map[string][]value.Row        // lower(name), stamp order
	rowIdx  map[*value.Value]rowRef       // &row[0] identity -> position
}

type rowRef struct {
	table string
	idx   int
}

// NewSharedCatalog returns an empty catalog.
func NewSharedCatalog() *SharedCatalog {
	return &SharedCatalog{
		tables: make(map[string]*tableData),
		stats:  make(map[string]*stats.ColumnStats),
		rows:   make(map[string][]value.Row),
		rowIdx: make(map[*value.Value]rowRef),
	}
}

// AddTable registers a canonical table definition and its base rows, and
// builds the table's clustered tree or heap by inserting them in order.
func (sc *SharedCatalog) AddTable(def *schema.Table, rows []value.Row) error {
	if err := def.Validate(); err != nil {
		return err
	}
	key := strings.ToLower(def.Name)
	if _, exists := sc.tables[key]; exists {
		return fmt.Errorf("engine: table %q already exists", def.Name)
	}
	t := &tableData{def: def, rowCount: int64(len(rows))}
	if len(def.PrimaryKey) == 0 {
		t.heap = storage.NewHeap(def.RowWidth())
	} else {
		t.clustered = btree.New(btree.DefaultOrder)
	}
	ords := t.pkOrdinals()
	for i, row := range rows {
		if len(row) != len(def.Columns) {
			return fmt.Errorf("engine: seed row width %d != table width %d", len(row), len(def.Columns))
		}
		sc.rowIdx[&row[0]] = rowRef{table: key, idx: i}
		if t.heap != nil {
			t.heap.Insert(row)
			continue
		}
		k := make(value.Key, len(ords))
		for j, o := range ords {
			if row[o].IsNull() {
				return fmt.Errorf("engine: NULL primary key in seed row for %q", def.Name)
			}
			k[j] = row[o]
		}
		if !t.clustered.Insert(k, row) {
			return fmt.Errorf("engine: duplicate primary key %v in seed rows for %q", k, def.Name)
		}
	}
	sc.tables[key] = t
	sc.rows[key] = rows
	return nil
}

// AddIndex builds a non-clustered index over a table already added, one
// entry per row in storage order — no locks, fault points, simulated
// build time or Query Store.
func (sc *SharedCatalog) AddIndex(def schema.IndexDef) error {
	t, ok := sc.tables[strings.ToLower(def.Table)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, def.Table)
	}
	for _, ix := range sc.indexes {
		if strings.EqualFold(ix.def.Name, def.Name) {
			return fmt.Errorf("%w: %s", ErrIndexExists, def.Name)
		}
	}
	if err := def.Validate(t.def); err != nil {
		return err
	}
	if def.Kind == schema.Clustered {
		return fmt.Errorf("engine: only non-clustered indexes can be seeded")
	}
	ix := &indexData{
		def:       def.Clone(),
		tree:      btree.New(btree.DefaultOrder),
		sizeBytes: def.EstimatedSizeBytes(t.def, t.rowCount),
	}
	for _, c := range def.KeyColumns {
		ix.keyOrds = append(ix.keyOrds, t.def.ColumnIndex(c))
	}
	for _, c := range def.IncludedColumns {
		ix.inclOrds = append(ix.inclOrds, t.def.ColumnIndex(c))
	}
	insert := func(row value.Row, loc value.Key) {
		k, p := ix.entryFor(row, loc)
		ix.tree.Insert(k, p)
	}
	if t.clustered != nil {
		t.clustered.Ascend(func(e btree.Entry) bool {
			insert(e.Payload, e.Key)
			return true
		})
	} else {
		t.heap.Scan(func(rid storage.RID, row value.Row) bool {
			insert(row, value.Key{value.NewInt(int64(rid))})
			return true
		})
	}
	sc.indexes = append(sc.indexes, ix)
	return nil
}

// AddStats registers a canonical statistics object for a column.
func (sc *SharedCatalog) AddStats(table, column string, st *stats.ColumnStats) {
	sc.stats[statKey(table, column)] = st
}

// TableDef returns the canonical definition for a table, or nil.
func (sc *SharedCatalog) TableDef(name string) *schema.Table {
	return sc.def(strings.ToLower(name))
}

// def returns the canonical definition under its exact key; sc may be nil.
func (sc *SharedCatalog) def(key string) *schema.Table {
	if sc == nil || sc.tables[key] == nil {
		return nil
	}
	return sc.tables[key].def
}

// Rows returns the canonical base rows for a table.
func (sc *SharedCatalog) Rows(name string) []value.Row {
	return sc.rows[strings.ToLower(name)]
}

// Stats returns the canonical statistics for a column, or nil.
func (sc *SharedCatalog) Stats(table, column string) *stats.ColumnStats {
	return sc.stats[statKey(table, column)]
}

// rowRefOf resolves a row to its catalog position by slice identity.
func (sc *SharedCatalog) rowRefOf(r value.Row) (rowRef, bool) {
	if sc == nil || len(r) == 0 {
		return rowRef{}, false
	}
	ref, ok := sc.rowIdx[&r[0]]
	return ref, ok
}

// Stamp installs every table, index and statistic of sc into d, a new
// database. Definitions, rows and statistics are aliased and every tree
// and heap cloned, so a stamp makes no comparisons, splits or per-entry
// allocations. Index metadata is the tenant's own: DropColumn and
// RenameColumn rewrite it in place. Statistics are current at the
// present data version, so the lazy refresh does not rebuild them.
func (d *Database) Stamp(sc *SharedCatalog, createdAt time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for k, ct := range sc.tables {
		t := &tableData{def: ct.def, rowCount: ct.rowCount}
		if ct.clustered != nil {
			t.clustered = ct.clustered.Clone()
		} else {
			t.heap = ct.heap.Clone()
		}
		d.tables[k] = t
	}
	for _, cx := range sc.indexes {
		d.indexes[strings.ToLower(cx.def.Name)] = &indexData{
			def:       cx.def.Clone(),
			tree:      cx.tree.Clone(),
			keyOrds:   slices.Clone(cx.keyOrds),
			inclOrds:  slices.Clone(cx.inclOrds),
			createdAt: createdAt,
			sizeBytes: cx.sizeBytes,
		}
	}
	for k, st := range sc.stats {
		d.colStat[k] = st
		d.statsVersion[k] = d.dataVersion
	}
}

// Tree exposes, for copy-on-write tests, the clustered tree of a table
// when index is "", else the named index's tree; nil when there is none.
func (d *Database) Tree(table, index string) *btree.Tree {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if ix, ok := d.indexes[strings.ToLower(index)]; ok {
		return ix.tree
	}
	if t, ok := d.tables[strings.ToLower(table)]; ok && index == "" {
		return t.clustered
	}
	return nil
}

// TableDefPtr exposes the table-definition pointer for aliasing tests:
// archetype siblings share one *schema.Table until a tenant-local DDL
// forks it.
func (d *Database) TableDefPtr(table string) *schema.Table {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if t, ok := d.tables[strings.ToLower(table)]; ok {
		return t.def
	}
	return nil
}

// StatPtr exposes the raw statistics pointer for a column (no lazy
// rebuild), for the same aliasing tests.
func (d *Database) StatPtr(table, column string) *stats.ColumnStats {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.colStat[statKey(table, column)]
}

// BaseRowPointer returns the address of the first value of the i-th row
// in storage order, the identity aliasing tests compare across tenants.
// It returns nil when the table or row does not exist.
func (d *Database) BaseRowPointer(table string, i int) *value.Value {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok || i < 0 {
		return nil
	}
	var out *value.Value
	n := 0
	visit := func(row value.Row) bool {
		if n == i && len(row) > 0 {
			out = &row[0]
			return false
		}
		n++
		return true
	}
	if t.clustered != nil {
		t.clustered.Ascend(func(e btree.Entry) bool { return visit(e.Payload) })
	} else {
		t.heap.Scan(func(_ storage.RID, row value.Row) bool { return visit(row) })
	}
	return out
}
