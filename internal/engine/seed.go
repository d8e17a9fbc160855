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
// The catalog also powers hibernation: what a tenant still shares with
// it is written into snapshots as references, keeping them compact and
// re-aliasing the shared storage on rehydrate.
type SharedCatalog struct {
	tables               map[string]*tableData         // lower(name)
	indexes              []*indexData                  // stamp order
	stats                map[string]*stats.ColumnStats // statKey
	tableRefs, indexRefs map[string]sharedStore        // lower(name)
	lists                [][]value.Row                 // what a rowRef points into; [0] is empty
	rowIdx               map[*value.Value]rowRef       // &row[0] identity of a row, key or payload -> position
}

type rowRef struct{ list, idx int }

// sharedStore is how snapshots reference a catalog table or index: its
// payload and key lists (base rows in stamp order, else leaf order), its
// tree's Dump, and the ordinal of the leaf each keys position starts.
type sharedStore struct {
	keys, payloads int
	nodes          []btree.DumpedNode
	leafAt         map[int]int
}

// NewSharedCatalog returns an empty catalog.
func NewSharedCatalog() *SharedCatalog {
	return &SharedCatalog{
		tables:    make(map[string]*tableData),
		stats:     make(map[string]*stats.ColumnStats),
		tableRefs: make(map[string]sharedStore),
		indexRefs: make(map[string]sharedStore),
		lists:     [][]value.Row{nil},
		rowIdx:    make(map[*value.Value]rowRef),
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
	for _, row := range rows {
		if len(row) != len(def.Columns) {
			return fmt.Errorf("engine: seed row width %d != table width %d", len(row), len(def.Columns))
		}
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
	sc.tableRefs[key] = sharedStore{payloads: sc.addList(rows)}
	if t.clustered != nil {
		sc.tableRefs[key] = sc.share(t.clustered, sc.tableRefs[key].payloads)
	}
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
	ix.resolve(t.def)
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
	sc.indexRefs[strings.ToLower(def.Name)] = sc.share(ix.tree, 0)
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

// def returns the canonical definition under its exact key.
func (sc *SharedCatalog) def(key string) *schema.Table {
	if sc.tables[key] == nil {
		return nil
	}
	return sc.tables[key].def
}

// Rows returns the canonical base rows for a table.
func (sc *SharedCatalog) Rows(name string) []value.Row {
	return sc.lists[sc.tableRefs[strings.ToLower(name)].payloads]
}

// Stats returns the canonical statistics for a column, or nil.
func (sc *SharedCatalog) Stats(table, column string) *stats.ColumnStats {
	return sc.stats[statKey(table, column)]
}

// addList registers rows by the identity of their first values.
func (sc *SharedCatalog) addList(rows []value.Row) int {
	for i, r := range rows {
		sc.rowIdx[&r[0]] = rowRef{list: len(sc.lists), idx: i}
	}
	sc.lists = append(sc.lists, rows)
	return len(sc.lists) - 1
}

// share registers the keys of t, a built tree, and its payloads unless
// the list payloads already holds them.
func (sc *SharedCatalog) share(t *btree.Tree, payloads int) sharedStore {
	st := sharedStore{payloads: payloads, nodes: t.Dump(), leafAt: make(map[int]int)}
	var keys, rows []value.Row
	for o, n := range st.nodes {
		if n.Leaf && len(n.Keys) > 0 {
			st.leafAt[len(keys)] = o
			for _, k := range n.Keys {
				keys = append(keys, value.Row(k))
			}
			rows = append(rows, n.Payloads...)
		}
	}
	if st.keys = sc.addList(keys); payloads == 0 {
		st.payloads = sc.addList(rows)
	}
	return st
}

// refIn returns the position of r in list, one of sc's lists, when r is
// physically that element: the same first value and length.
func (sc *SharedCatalog) refIn(list int, r value.Row) (int, bool) {
	if list == 0 || len(r) == 0 {
		return 0, false
	}
	ref, ok := sc.rowIdx[&r[0]]
	return ref.idx, ok && ref.list == list && len(sc.lists[list][ref.idx]) == len(r)
}

// leafOf returns the Dump ordinal of st's leaf that n copies pointer for
// pointer, found by the identity of n's first key.
func (sc *SharedCatalog) leafOf(st sharedStore, n btree.DumpedNode) (int, bool) {
	if !n.Leaf || len(n.Keys) == 0 {
		return 0, false
	}
	idx, ok := sc.refIn(st.keys, value.Row(n.Keys[0]))
	o, first := st.leafAt[idx]
	ok = ok && first && len(st.nodes[o].Keys) == len(n.Keys)
	for i := 0; ok && i < len(n.Keys); i++ { // catalog entries are never empty
		k, p := st.nodes[o].Keys[i], st.nodes[o].Payloads[i]
		ok = len(n.Keys[i]) == len(k) && &n.Keys[i][0] == &k[0] && len(n.Payloads[i]) == len(p) && &n.Payloads[i][0] == &p[0]
	}
	return o, ok
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
		d.putIndex(&indexData{
			def:       cx.def.Clone(),
			tree:      cx.tree.Clone(),
			keyOrds:   slices.Clone(cx.keyOrds),
			inclOrds:  slices.Clone(cx.inclOrds),
			createdAt: createdAt,
			sizeBytes: cx.sizeBytes,
		})
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
