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
package optimizer

import (
	"fmt"
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
	Def       schema.IndexDef
	Height    int
	LeafPages int64
	RowCount  int64
}

// Catalog provides the metadata and statistics the optimizer plans from.
// The engine implements it over real data; WhatIfCatalog overlays
// hypothetical indexes on any other Catalog.
type Catalog interface {
	// Table returns table metadata by name (case-insensitive).
	Table(name string) (TableInfo, bool)
	// Indexes returns the indexes defined on the table.
	Indexes(table string) []IndexInfo
	// ColumnStats returns statistics for a column, if built.
	ColumnStats(table, column string) (*stats.ColumnStats, bool)
}

// HypotheticalIndexInfo synthesises IndexInfo for an index definition that
// does not physically exist, from table metadata alone. Both the what-if
// catalog and MI-improvement estimation use it.
func HypotheticalIndexInfo(def schema.IndexDef, t TableInfo) IndexInfo {
	entryWidth := 0
	for _, c := range def.AllColumns() {
		if col, ok := t.Def.Column(c); ok {
			entryWidth += col.Width()
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
	return IndexInfo{Def: def, Height: height, LeafPages: leafPages, RowCount: t.RowCount}
}

// WhatIfCatalog overlays hypothetical indexes on a base catalog. It is the
// reproduction of the AutoAdmin what-if API: DTA costs configurations by
// planning against this catalog, never building the indexes.
type WhatIfCatalog struct {
	Base Catalog
	// Hypothetical maps lower(table) to added index definitions.
	hypo map[string][]schema.IndexDef
}

// NewWhatIfCatalog returns an overlay over base.
func NewWhatIfCatalog(base Catalog) *WhatIfCatalog {
	return &WhatIfCatalog{Base: base, hypo: make(map[string][]schema.IndexDef)}
}

// AddHypothetical adds a hypothetical index; the definition is marked
// Hypothetical regardless of input.
func (w *WhatIfCatalog) AddHypothetical(def schema.IndexDef) {
	def = def.Clone()
	def.Hypothetical = true
	k := strings.ToLower(def.Table)
	w.hypo[k] = append(w.hypo[k], def)
}

// RemoveHypothetical removes a previously added hypothetical index by name.
func (w *WhatIfCatalog) RemoveHypothetical(name string) {
	for k, defs := range w.hypo {
		out := defs[:0]
		for _, d := range defs {
			if !strings.EqualFold(d.Name, name) {
				out = append(out, d)
			}
		}
		w.hypo[k] = out
	}
}

// ClearHypothetical removes all hypothetical indexes.
func (w *WhatIfCatalog) ClearHypothetical() {
	w.hypo = make(map[string][]schema.IndexDef)
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
		for _, d := range w.hypo[t] {
			adds = append(adds, strings.ToLower(d.Name)+"|"+d.Signature())
		}
	}
	sort.Strings(adds)
	return strings.Join(adds, ";")
}

// Table implements Catalog.
func (w *WhatIfCatalog) Table(name string) (TableInfo, bool) {
	return w.Base.Table(name)
}

// Indexes implements Catalog, overlaying hypothetical definitions.
func (w *WhatIfCatalog) Indexes(table string) []IndexInfo {
	out := append([]IndexInfo(nil), w.Base.Indexes(table)...)
	if t, ok := w.Table(table); ok {
		for _, def := range w.hypo[strings.ToLower(table)] {
			out = append(out, HypotheticalIndexInfo(def, t))
		}
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
	for _, d := range w.hypo {
		n += len(d)
	}
	return fmt.Sprintf("whatif(+%d hypothetical)", n)
}
