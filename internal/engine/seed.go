package engine

import (
	"fmt"
	"strings"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/schema"
	"autoindex/internal/stats"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// SharedCatalog holds the immutable, archetype-level objects that every
// tenant stamped from the same template aliases instead of copying:
// canonical table definitions, base-data rows in stamp order, and column
// statistics built once over the template data. Tenants share these
// copy-on-write — any tenant-local DDL (DropColumn) or statistics refresh
// replaces only that tenant's pointer, leaving siblings untouched — so a
// 100k-tenant fleet pays for each archetype's schema, base rows and
// histograms once.
//
// The catalog also powers hibernation: rows physically shared with the
// catalog are serialized as (table, row-index) references rather than
// values, keeping snapshots compact and re-aliasing the shared storage on
// rehydrate.
type SharedCatalog struct {
	tables map[string]*schema.Table      // lower(name)
	stats  map[string]*stats.ColumnStats // statKey
	rows   map[string][]value.Row        // lower(name), stamp order
	rowIdx map[*value.Value]rowRef       // &row[0] identity -> position
}

type rowRef struct {
	table string
	idx   int
}

// NewSharedCatalog returns an empty catalog.
func NewSharedCatalog() *SharedCatalog {
	return &SharedCatalog{
		tables: make(map[string]*schema.Table),
		stats:  make(map[string]*stats.ColumnStats),
		rows:   make(map[string][]value.Row),
		rowIdx: make(map[*value.Value]rowRef),
	}
}

// AddTable registers a canonical table definition and its base rows.
// Both become immutable: tenants alias them directly.
func (sc *SharedCatalog) AddTable(def *schema.Table, rows []value.Row) {
	key := strings.ToLower(def.Name)
	sc.tables[key] = def
	sc.rows[key] = rows
	for i, r := range rows {
		if len(r) > 0 {
			sc.rowIdx[&r[0]] = rowRef{table: key, idx: i}
		}
	}
}

// AddStats registers a canonical statistics object for a column.
func (sc *SharedCatalog) AddStats(table, column string, st *stats.ColumnStats) {
	sc.stats[statKey(table, column)] = st
}

// TableDef returns the canonical definition for a table, or nil.
func (sc *SharedCatalog) TableDef(name string) *schema.Table {
	return sc.tables[strings.ToLower(name)]
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

// SeedTable installs a table directly from a shared definition and base
// rows, bypassing the SQL path. The definition pointer and the row slices
// are aliased, not copied — the copy-on-write substrate for archetype
// fleets. Rows must already have the definition's column layout; the
// engine never mutates stored rows in place (updates clone, deletes
// unlink), so sharing them across tenants is safe even under the race
// detector.
func (d *Database) SeedTable(def *schema.Table, rows []value.Row) error {
	if err := def.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, exists := d.tables[key]; exists {
		return fmt.Errorf("engine: table %q already exists", def.Name)
	}
	t := &tableData{def: def, rowCount: int64(len(rows))}
	if len(def.PrimaryKey) > 0 {
		t.clustered = btree.New(btree.DefaultOrder)
		ords := make([]int, len(def.PrimaryKey))
		for i, c := range def.PrimaryKey {
			ords[i] = def.ColumnIndex(c)
		}
		for _, row := range rows {
			if len(row) != len(def.Columns) {
				return fmt.Errorf("engine: seed row width %d != table width %d", len(row), len(def.Columns))
			}
			k := make(value.Key, len(ords))
			for i, o := range ords {
				if row[o].IsNull() {
					return fmt.Errorf("engine: NULL primary key in seed row for %q", def.Name)
				}
				k[i] = row[o]
			}
			if _, dup := t.clustered.Get(k); dup {
				return fmt.Errorf("engine: duplicate primary key %v in seed rows for %q", k, def.Name)
			}
			t.clustered.Insert(k, row)
		}
	} else {
		t.heap = storage.NewHeap(def.RowWidth())
		for _, row := range rows {
			if len(row) != len(def.Columns) {
				return fmt.Errorf("engine: seed row width %d != table width %d", len(row), len(def.Columns))
			}
			t.heap.Insert(row)
		}
	}
	d.tables[key] = t
	return nil
}

// SeedIndex builds a secondary index directly — no locks, no fault
// points, no simulated build time, nothing recorded in Query Store. It
// exists for stamping archetype setup indexes onto a fresh tenant.
func (d *Database) SeedIndex(def schema.IndexDef, createdAt time.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[strings.ToLower(def.Table)]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTableNotFound, def.Table)
	}
	if _, exists := d.indexes[strings.ToLower(def.Name)]; exists {
		return fmt.Errorf("%w: %s", ErrIndexExists, def.Name)
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
		createdAt: createdAt,
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
	d.indexes[strings.ToLower(def.Name)] = ix
	return nil
}

// SeedStats adopts a prebuilt (typically archetype-shared) statistics
// object for a column, marking it current at the present data version so
// the lazy refresh path does not immediately rebuild it.
func (d *Database) SeedStats(table, column string, st *stats.ColumnStats) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := statKey(table, column)
	d.colStat[key] = st
	d.statsVersion[key] = d.dataVersion
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
