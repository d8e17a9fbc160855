// Package optimizer implements the cost-based query optimizer: statement
// binding, access-path selection over B+ tree indexes, join ordering, and
// the two hooks the auto-indexing service is built on — the "what-if" API
// for costing hypothetical index configurations [11] and the Missing-Index
// candidate emission that populates the MI DMVs during optimization [34].
//
// The optimizer estimates costs from histogram statistics under an
// independence assumption. Actual execution (package engine) measures true
// costs. The two intentionally disagree on skewed or correlated data —
// the paper's central reason for validating implemented indexes (§6).
//
// Binding resolves each FROM table, its index list, and each predicate's
// and needed column's ordinal once per plan. Access paths are then priced
// from ordinals — key matching, and covering as a needed-column bitset
// test — with each predicate's selectivity estimated once and multiplied
// in the same order by every path. Only the cheapest path becomes a
// Node: planning allocates per table and node, not per index or column.
package optimizer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"autoindex/internal/schema"
	"autoindex/internal/stats"
	"autoindex/internal/storage"
)

// TableInfo is the catalog's view of a table.
type TableInfo struct {
	Def      *schema.Table
	RowCount int64
	// DataPages is the page count of the base storage (heap or clustered
	// index leaf level).
	DataPages int64
	// ClusteredHeight is the clustered index height, or 0 for a heap.
	ClusteredHeight int
}

// IndexInfo is the catalog's view of an index (possibly hypothetical).
type IndexInfo struct {
	Def schema.IndexDef
	// KeyOrds and InclOrds are the ordinals of Def's key and included
	// columns in the table definition (-1 for a column it lacks).
	KeyOrds, InclOrds []int
	Height            int
	LeafPages         int64
	RowCount          int64
}

// Catalog provides the metadata and statistics the optimizer plans from.
// The engine implements it over real data; WhatIfCatalog overlays
// hypothetical indexes on any other Catalog.
type Catalog interface {
	// Table returns table metadata by name (case-insensitive).
	Table(name string) (TableInfo, bool)
	// Indexes returns the indexes defined on the table, sorted by name.
	// The list may be shared: callers do not write it.
	Indexes(table string) []IndexInfo
	// ColumnStats returns statistics for a column, if built.
	ColumnStats(table, column string) (*stats.ColumnStats, bool)
}

// HypotheticalIndexInfo synthesises IndexInfo for an index definition that
// does not physically exist, from table metadata alone.
func HypotheticalIndexInfo(def schema.IndexDef, t TableInfo) IndexInfo {
	entryWidth := 0
	for _, cols := range [2][]string{def.KeyColumns, def.IncludedColumns} {
		for _, c := range cols {
			if col, ok := t.Def.Column(c); ok {
				entryWidth += col.Width()
			}
		}
	}
	for _, pk := range t.Def.PrimaryKey {
		if !def.HasColumn(pk) {
			if col, ok := t.Def.Column(pk); ok {
				entryWidth += col.Width()
			}
		}
	}
	if entryWidth == 0 {
		entryWidth = 8
	}
	leafPages := storage.PagesFor(t.RowCount, entryWidth)
	height := 1
	for n := leafPages; n > 1; n /= 64 {
		height++
		if height > 6 {
			break
		}
	}
	return IndexInfo{
		Def: def, KeyOrds: t.Def.Ordinals(def.KeyColumns), InclOrds: t.Def.Ordinals(def.IncludedColumns),
		Height: height, LeafPages: leafPages, RowCount: t.RowCount,
	}
}

// WhatIfCatalog overlays hypothetical indexes on a base catalog. It is the
// reproduction of the AutoAdmin what-if API: DTA costs configurations by
// planning against this catalog, never building the indexes. It is not
// safe for concurrent use.
type WhatIfCatalog struct {
	Base Catalog
	// hypo maps lower(table) to the added indexes, in the order added.
	hypo map[string][]hypoIndex
}

// hypoIndex is a hypothetical index with its IndexInfo, derived for the
// table definition it was last listed against and that table's row count.
type hypoIndex struct {
	info IndexInfo
	def  *schema.Table
}

// NewWhatIfCatalog returns an overlay over base.
func NewWhatIfCatalog(base Catalog) *WhatIfCatalog {
	return &WhatIfCatalog{Base: base, hypo: make(map[string][]hypoIndex)}
}

// AddHypothetical adds a hypothetical index; the definition is marked
// Hypothetical regardless of input.
func (w *WhatIfCatalog) AddHypothetical(def schema.IndexDef) {
	def = def.Clone()
	def.Hypothetical = true
	k := strings.ToLower(def.Table)
	w.hypo[k] = append(w.hypo[k], hypoIndex{info: IndexInfo{Def: def}})
}

// RemoveHypothetical removes a previously added hypothetical index by name.
func (w *WhatIfCatalog) RemoveHypothetical(name string) {
	for k, hs := range w.hypo {
		w.hypo[k] = slices.DeleteFunc(hs, func(h hypoIndex) bool { return strings.EqualFold(h.info.Def.Name, name) })
	}
}

// ClearHypothetical removes all hypothetical indexes.
func (w *WhatIfCatalog) ClearHypothetical() {
	w.hypo = make(map[string][]hypoIndex)
}

// Signature canonically describes the overlay as the given tables
// (lowercased, as sqlparser.Tables returns them) see it: their sorted
// hypothetical index definitions, name plus structural signature — the
// name matters because cached plans reference indexes by name. Two
// catalogs with equal signatures over the tables a statement references
// plan it identically over the same base catalog — an index on a table
// the statement never touches cannot enter its plan — which is what lets
// the plan-cost cache key on it.
func (w *WhatIfCatalog) Signature(tables []string) string {
	var adds []string
	for _, t := range tables {
		for _, h := range w.hypo[t] {
			adds = append(adds, strings.ToLower(h.info.Def.Name)+"|"+h.info.Def.Signature())
		}
	}
	sort.Strings(adds)
	return strings.Join(adds, ";")
}

// Table implements Catalog.
func (w *WhatIfCatalog) Table(name string) (TableInfo, bool) {
	return w.Base.Table(name)
}

// Indexes implements Catalog: the base indexes, then the hypothetical
// ones in the order added, each re-derived only when its table's
// definition or row count moved since it was last listed.
func (w *WhatIfCatalog) Indexes(table string) []IndexInfo {
	out := slices.Clip(w.Base.Indexes(table)) // appending copies it
	hs := w.hypo[strings.ToLower(table)]
	if len(hs) == 0 {
		return out
	}
	t, ok := w.Table(table)
	if !ok {
		return out
	}
	for i := range hs {
		h := &hs[i]
		if h.def != t.Def || h.info.RowCount != t.RowCount {
			h.info, h.def = HypotheticalIndexInfo(h.info.Def, t), t.Def
		}
		out = append(out, h.info)
	}
	return out
}

// ColumnStats implements Catalog.
func (w *WhatIfCatalog) ColumnStats(table, column string) (*stats.ColumnStats, bool) {
	return w.Base.ColumnStats(table, column)
}

// String describes the overlay for diagnostics.
func (w *WhatIfCatalog) String() string {
	n := 0
	for _, hs := range w.hypo {
		n += len(hs)
	}
	return fmt.Sprintf("whatif(+%d hypothetical)", n)
}
