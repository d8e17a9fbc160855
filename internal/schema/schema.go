// Package schema defines the catalog metadata: tables, columns and index
// definitions. Index definitions carry the attributes the auto-indexing
// service reasons about — key vs. included columns, clustered vs.
// non-clustered, hypothetical (what-if) status, whether the index was
// auto-created by the service, and whether it is pinned by a query hint or
// enforces an application constraint (both of which make it ineligible for
// automatic drop, §5.4).
package schema

import (
	"errors"
	"fmt"
	"strings"

	"autoindex/internal/value"
)

// ErrColumnNotFound marks an index definition referencing a column its
// table no longer has. Schema migrations (column drops/renames) racing
// in-flight recommendations surface it through IndexDef.Validate; the
// control plane treats it as a well-known terminal condition rather
// than an incident (§8.3).
var ErrColumnNotFound = errors.New("schema: column not in table")

// Column describes one table column.
type Column struct {
	Name     string
	Kind     value.Kind
	Nullable bool
	// AvgWidth is the average storage width in bytes, used for index size
	// estimation and IO cost accounting.
	AvgWidth int
}

// Width returns the average width, defaulting by kind when unset.
func (c Column) Width() int {
	if c.AvgWidth > 0 {
		return c.AvgWidth
	}
	switch c.Kind {
	case value.Int, value.Time, value.Float:
		return 8
	case value.Bool:
		return 1
	case value.String:
		return 24
	default:
		return 8
	}
}

// Table describes a table: its columns and primary key. The primary key is
// the clustered index key (as in SQL Server's default).
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey lists column names forming the clustered key. Empty means
	// the table is a heap.
	PrimaryKey []string
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Ordinals returns the ordinal of each named column, -1 for a missing one.
func (t *Table) Ordinals(cols []string) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = t.ColumnIndex(c)
	}
	return out
}

// Column returns the named column and whether it exists.
func (t *Table) Column(name string) (Column, bool) {
	if i := t.ColumnIndex(name); i >= 0 {
		return t.Columns[i], true
	}
	return Column{}, false
}

// RowWidth returns the average row width in bytes.
func (t *Table) RowWidth() int {
	w := 0
	for _, c := range t.Columns {
		w += c.Width()
	}
	return w
}

// Validate checks internal consistency of the table definition.
func (t *Table) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("schema: table with empty name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("schema: table %s has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, c := range t.Columns {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("schema: table %s: duplicate column %s", t.Name, c.Name)
		}
		seen[lc] = true
	}
	for _, pk := range t.PrimaryKey {
		if t.ColumnIndex(pk) < 0 {
			return fmt.Errorf("schema: table %s: primary key column %s not found", t.Name, pk)
		}
	}
	return nil
}

// IndexKind distinguishes the physical shape of an index.
type IndexKind uint8

// Index kinds. The service manages non-clustered B+ tree indexes only
// (the paper's offering), but clustered indexes exist as the base storage.
const (
	NonClustered IndexKind = iota
	Clustered
)

func (k IndexKind) String() string {
	if k == Clustered {
		return "CLUSTERED"
	}
	return "NONCLUSTERED"
}

// IndexDef defines an index on a table.
type IndexDef struct {
	Name  string
	Table string
	Kind  IndexKind
	// KeyColumns are the ordered key columns.
	KeyColumns []string
	// IncludedColumns are carried in leaf entries but not part of the key.
	IncludedColumns []string
	Unique          bool

	// Hypothetical marks a what-if index: metadata + statistics only, no
	// data structure is built and the executor can never use it.
	Hypothetical bool
	// AutoCreated marks indexes created by the auto-indexing service; only
	// these are ever auto-reverted or force-dropped on conflict (§8.3).
	AutoCreated bool
	// Hinted marks indexes referenced by query hints or forced plans;
	// dropping one could break the application, so the drop analysis
	// excludes them (§5.4).
	Hinted bool
	// EnforcesConstraint marks indexes backing an application-specified
	// constraint (unique/foreign key); also excluded from drops.
	EnforcesConstraint bool
}

// Clone returns a deep copy of the definition.
func (d IndexDef) Clone() IndexDef {
	out := d
	out.KeyColumns = append([]string(nil), d.KeyColumns...)
	out.IncludedColumns = append([]string(nil), d.IncludedColumns...)
	return out
}

// AllColumns returns key columns followed by included columns.
func (d IndexDef) AllColumns() []string {
	out := make([]string, 0, len(d.KeyColumns)+len(d.IncludedColumns))
	out = append(out, d.KeyColumns...)
	out = append(out, d.IncludedColumns...)
	return out
}

// HasColumn reports whether col appears anywhere in the index.
func (d IndexDef) HasColumn(col string) bool {
	for _, cols := range [2][]string{d.KeyColumns, d.IncludedColumns} {
		for _, c := range cols {
			if strings.EqualFold(c, col) {
				return true
			}
		}
	}
	return false
}

// KeyPrefixOf reports whether d's key columns are a (possibly equal) prefix
// of other's key columns, the merge condition used by conservative index
// merging (§5.2, [12]).
func (d IndexDef) KeyPrefixOf(other IndexDef) bool {
	if len(d.KeyColumns) > len(other.KeyColumns) {
		return false
	}
	for i, c := range d.KeyColumns {
		if !strings.EqualFold(c, other.KeyColumns[i]) {
			return false
		}
	}
	return true
}

// SameKey reports whether two indexes have identical key columns in
// identical order — the paper's definition of duplicate indexes (§5.4).
func (d IndexDef) SameKey(other IndexDef) bool {
	return d.KeyPrefixOf(other) && other.KeyPrefixOf(d)
}

// Signature returns a canonical textual form usable as a map key for
// structural deduplication.
func (d IndexDef) Signature() string {
	return strings.ToLower(d.Table) + "(" + strings.ToLower(strings.Join(d.KeyColumns, ",")) +
		") include(" + strings.ToLower(strings.Join(d.IncludedColumns, ",")) + ")"
}

// String renders the definition as DDL.
func (d IndexDef) String() string {
	var b strings.Builder
	b.WriteString("CREATE ")
	if d.Unique {
		b.WriteString("UNIQUE ")
	}
	b.WriteString(d.Kind.String())
	b.WriteString(" INDEX ")
	b.WriteString(d.Name)
	b.WriteString(" ON ")
	b.WriteString(d.Table)
	b.WriteString(" (")
	b.WriteString(strings.Join(d.KeyColumns, ", "))
	b.WriteString(")")
	if len(d.IncludedColumns) > 0 {
		b.WriteString(" INCLUDE (")
		b.WriteString(strings.Join(d.IncludedColumns, ", "))
		b.WriteString(")")
	}
	return b.String()
}

// Validate checks the index definition against its table.
func (d IndexDef) Validate(t *Table) error {
	if d.Name == "" {
		return fmt.Errorf("schema: index with empty name on %s", d.Table)
	}
	if len(d.KeyColumns) == 0 {
		return fmt.Errorf("schema: index %s has no key columns", d.Name)
	}
	seen := make(map[string]bool)
	for _, c := range d.AllColumns() {
		lc := strings.ToLower(c)
		if seen[lc] {
			return fmt.Errorf("schema: index %s: column %s repeated", d.Name, c)
		}
		seen[lc] = true
		if t.ColumnIndex(c) < 0 {
			return fmt.Errorf("%w: index %s: column %s not in table %s", ErrColumnNotFound, d.Name, c, t.Name)
		}
	}
	return nil
}

// EstimatedSizeBytes estimates the index size for rowCount rows: leaf
// entries hold key + include columns plus the clustered key (row locator),
// with ~40% B+ tree overhead.
func (d IndexDef) EstimatedSizeBytes(t *Table, rowCount int64) int64 {
	entry := 0
	for _, c := range d.AllColumns() {
		if col, ok := t.Column(c); ok {
			entry += col.Width()
		}
	}
	for _, pk := range t.PrimaryKey {
		if !d.HasColumn(pk) {
			if col, ok := t.Column(pk); ok {
				entry += col.Width()
			}
		}
	}
	if entry == 0 {
		entry = 8
	}
	return int64(float64(entry)*1.4) * rowCount
}
