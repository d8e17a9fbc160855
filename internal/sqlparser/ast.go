package sqlparser

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"autoindex/internal/schema"
	"autoindex/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface {
	// SQL renders the statement back to text.
	SQL() string
	// Fingerprint returns a stable hash of the statement template: the
	// statement with literals replaced by placeholders. Query Store keys
	// queries by this hash so parameterised executions aggregate together.
	Fingerprint() uint64
	// templateSQL renders with literals replaced by '?'.
	templateSQL() string
}

// CompareOp is a comparison operator in a predicate.
type CompareOp int

// Supported comparison operators.
const (
	OpEQ CompareOp = iota
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
)

// String renders the operator.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return "?op?"
	}
}

// IsEquality reports whether the operator is equality.
func (op CompareOp) IsEquality() bool { return op == OpEQ }

// IsRange reports whether the operator defines a seekable range (the MI
// feature calls these INEQUALITY predicates; <> is not seekable).
func (op CompareOp) IsRange() bool {
	return op == OpLT || op == OpLE || op == OpGT || op == OpGE
}

// ColRef references a column, optionally qualified by table or alias.
type ColRef struct {
	Table  string // alias or table name, may be empty
	Column string
}

// String renders the reference. An unqualified column is its quoted
// name, returned without a copy when the name is plain.
func (c ColRef) String() string {
	if c.Table == "" {
		return quoteIdent(c.Column)
	}
	var b strings.Builder
	b.Grow(len(c.Table) + 1 + len(c.Column))
	c.writeTo(&b)
	return b.String()
}

// writeTo writes the reference into b, the one renderer of a column
// reference. Writing the parts straight into b keeps statement
// rendering free of a concatenation per reference.
func (c ColRef) writeTo(b *strings.Builder) {
	if c.Table != "" {
		b.WriteString(quoteIdent(c.Table))
		b.WriteString(".")
	}
	b.WriteString(quoteIdent(c.Column))
}

// Predicate is one conjunct of a WHERE clause: column op literal.
type Predicate struct {
	Col ColRef
	Op  CompareOp
	Val value.Value
}

// SQL renders the predicate.
func (p Predicate) SQL() string {
	return p.Col.String() + " " + p.Op.String() + " " + p.Val.String()
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions; AggNone marks a plain column reference.
const (
	AggNone AggFunc = iota
	AggCount
	AggCountCol
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggCount, AggCountCol:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return ""
	}
}

// SelectItem is one projected output: a column, a star, or an aggregate.
type SelectItem struct {
	Star bool
	Agg  AggFunc
	Col  ColRef // unused for Star and AggCount
}

// SQL renders the item. Only an aggregate over a column is built; the
// other items render as one existing string.
func (s SelectItem) SQL() string {
	switch {
	case s.Star:
		return "*"
	case s.Agg == AggCount:
		return "COUNT(*)"
	case s.Agg == AggNone:
		return s.Col.String()
	}
	n := len(s.Agg.String()) + 2 + len(s.Col.Column)
	if s.Col.Table != "" {
		n += len(s.Col.Table) + 1
	}
	var b strings.Builder
	b.Grow(n)
	s.writeTo(&b)
	return b.String()
}

// writeTo writes the item into b (see ColRef.writeTo).
func (s SelectItem) writeTo(b *strings.Builder) {
	switch {
	case s.Star, s.Agg == AggCount:
		b.WriteString(s.SQL())
	case s.Agg != AggNone:
		b.WriteString(s.Agg.String())
		b.WriteString("(")
		s.Col.writeTo(b)
		b.WriteString(")")
	default:
		s.Col.writeTo(b)
	}
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the alias if set, else the table name.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// SQL renders the reference. An unaliased table is its quoted name,
// returned without a copy when the name is plain.
func (t TableRef) SQL() string {
	if t.Alias == "" {
		return quoteIdent(t.Table)
	}
	var b strings.Builder
	b.Grow(len(t.Table) + 1 + len(t.Alias))
	t.writeTo(&b)
	return b.String()
}

// writeTo writes the reference into b (see ColRef.writeTo).
func (t TableRef) writeTo(b *strings.Builder) {
	b.WriteString(quoteIdent(t.Table))
	if t.Alias != "" {
		b.WriteString(" ")
		b.WriteString(quoteIdent(t.Alias))
	}
}

// Join is an inner equi-join clause.
type Join struct {
	Table TableRef
	// Left and Right are the equated columns (left references an earlier
	// table in the FROM chain, right the joined table).
	Left, Right ColRef
}

// OrderItem is one ORDER BY element.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Top     int // 0 = no TOP
	Items   []SelectItem
	From    TableRef
	Joins   []Join
	Where   []Predicate // conjunction
	GroupBy []ColRef
	OrderBy []OrderItem
}

// SQL renders the statement.
func (s *SelectStmt) SQL() string { return s.render(false) }

func (s *SelectStmt) templateSQL() string { return s.render(true) }

func (s *SelectStmt) render(template bool) string {
	var b strings.Builder
	b.Grow(64) // most statements fit: one allocation
	b.WriteString("SELECT ")
	if s.Top > 0 {
		b.WriteString("TOP ")
		if template {
			b.WriteString("?")
		} else {
			b.WriteString(strconv.Itoa(s.Top))
		}
		b.WriteString(" ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		it.writeTo(&b)
	}
	b.WriteString(" FROM ")
	s.From.writeTo(&b)
	for _, j := range s.Joins {
		b.WriteString(" JOIN ")
		j.Table.writeTo(&b)
		b.WriteString(" ON ")
		j.Left.writeTo(&b)
		b.WriteString(" = ")
		j.Right.writeTo(&b)
	}
	writeWhere(&b, s.Where, template)
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			c.writeTo(&b)
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			o.Col.writeTo(&b)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	return b.String()
}

func writeWhere(b *strings.Builder, preds []Predicate, template bool) {
	if len(preds) == 0 {
		return
	}
	b.WriteString(" WHERE ")
	for i, p := range preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		p.Col.writeTo(b)
		b.WriteString(" ")
		b.WriteString(p.Op.String())
		b.WriteString(" ")
		if template {
			b.WriteString("?")
		} else {
			b.WriteString(p.Val.String())
		}
	}
}

// Fingerprint hashes the statement template.
func (s *SelectStmt) Fingerprint() uint64 { return fingerprint(s) }

// InsertStmt is an INSERT ... VALUES statement.
type InsertStmt struct {
	Table   string
	Columns []string // empty means all columns in table order
	Rows    []value.Row
}

// SQL renders the statement.
func (s *InsertStmt) SQL() string { return s.render(false) }

func (s *InsertStmt) templateSQL() string { return s.render(true) }

func (s *InsertStmt) render(template bool) string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(quoteIdent(s.Table))
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(quoteIdents(s.Columns), ", "))
		b.WriteString(")")
	}
	b.WriteString(" VALUES ")
	for i, r := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		if template {
			b.WriteString("(")
			for j := range r {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString("?")
			}
			b.WriteString(")")
		} else {
			b.WriteString(r.String())
		}
	}
	return b.String()
}

// Fingerprint hashes the statement template. Multi-row inserts share the
// fingerprint of the single-row form so batch sizes do not fragment Query
// Store entries.
func (s *InsertStmt) Fingerprint() uint64 {
	one := &InsertStmt{Table: s.Table, Columns: s.Columns, Rows: s.Rows[:min(1, len(s.Rows))]}
	return fingerprint(one)
}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where []Predicate
}

// Assignment is one SET column = literal clause.
type Assignment struct {
	Column string
	Val    value.Value
}

// SQL renders the statement.
func (s *UpdateStmt) SQL() string { return s.render(false) }

func (s *UpdateStmt) templateSQL() string { return s.render(true) }

func (s *UpdateStmt) render(template bool) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString("UPDATE ")
	b.WriteString(quoteIdent(s.Table))
	b.WriteString(" SET ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(a.Column))
		b.WriteString(" = ")
		if template {
			b.WriteString("?")
		} else {
			b.WriteString(a.Val.String())
		}
	}
	writeWhere(&b, s.Where, template)
	return b.String()
}

// Fingerprint hashes the statement template.
func (s *UpdateStmt) Fingerprint() uint64 { return fingerprint(s) }

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	Table string
	Where []Predicate
}

// SQL renders the statement.
func (s *DeleteStmt) SQL() string { return s.render(false) }

func (s *DeleteStmt) templateSQL() string { return s.render(true) }

func (s *DeleteStmt) render(template bool) string {
	var b strings.Builder
	b.Grow(64)
	b.WriteString("DELETE FROM ")
	b.WriteString(quoteIdent(s.Table))
	writeWhere(&b, s.Where, template)
	return b.String()
}

// Fingerprint hashes the statement template.
func (s *DeleteStmt) Fingerprint() uint64 { return fingerprint(s) }

// BulkInsertStmt models T-SQL BULK INSERT, which the real what-if API
// cannot optimize; DTA rewrites it into an equivalent INSERT so index
// maintenance costs are accounted (§5.3.2).
type BulkInsertStmt struct {
	Table string
	// Source names the external data source; RowEstimate is how many rows
	// a typical execution loads.
	Source      string
	RowEstimate int64
}

// SQL renders the statement.
func (s *BulkInsertStmt) SQL() string {
	return "BULK INSERT " + quoteIdent(s.Table) + " FROM DATASOURCE " + quoteIdent(s.Source)
}

func (s *BulkInsertStmt) templateSQL() string { return s.SQL() }

// Fingerprint hashes the statement template.
func (s *BulkInsertStmt) Fingerprint() uint64 { return fingerprint(s) }

// CreateTableStmt is CREATE TABLE DDL.
type CreateTableStmt struct {
	Table schema.Table
}

// SQL renders the statement.
func (s *CreateTableStmt) SQL() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(quoteIdent(s.Table.Name))
	b.WriteString(" (")
	for i, c := range s.Table.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(c.Name))
		b.WriteString(" ")
		b.WriteString(c.Kind.String())
		if !c.Nullable {
			b.WriteString(" NOT NULL")
		}
	}
	if len(s.Table.PrimaryKey) > 0 {
		if len(s.Table.Columns) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("PRIMARY KEY (")
		b.WriteString(strings.Join(quoteIdents(s.Table.PrimaryKey), ", "))
		b.WriteString(")")
	}
	b.WriteString(")")
	return b.String()
}

func (s *CreateTableStmt) templateSQL() string { return s.SQL() }

// Fingerprint hashes the statement template.
func (s *CreateTableStmt) Fingerprint() uint64 { return fingerprint(s) }

// CreateIndexStmt is CREATE INDEX DDL.
type CreateIndexStmt struct {
	Index  schema.IndexDef
	Online bool
}

// SQL renders the statement.
func (s *CreateIndexStmt) SQL() string {
	d := s.Index
	d.Name, d.Table = quoteIdent(d.Name), quoteIdent(d.Table)
	d.KeyColumns, d.IncludedColumns = quoteIdents(d.KeyColumns), quoteIdents(d.IncludedColumns)
	out := d.String()
	if s.Online {
		out += " WITH (ONLINE = ON)"
	}
	return out
}

func (s *CreateIndexStmt) templateSQL() string { return s.SQL() }

// Fingerprint hashes the statement template.
func (s *CreateIndexStmt) Fingerprint() uint64 { return fingerprint(s) }

// DropIndexStmt is DROP INDEX DDL.
type DropIndexStmt struct {
	Name  string
	Table string
}

// SQL renders the statement.
func (s *DropIndexStmt) SQL() string {
	return "DROP INDEX " + quoteIdent(s.Name) + " ON " + quoteIdent(s.Table)
}

func (s *DropIndexStmt) templateSQL() string { return s.SQL() }

// Fingerprint hashes the statement template.
func (s *DropIndexStmt) Fingerprint() uint64 { return fingerprint(s) }

// quoteIdents applies quoteIdent to each name, returning names itself
// when every one is plain.
func quoteIdents(names []string) []string {
	for i, n := range names {
		if q := quoteIdent(n); q != n {
			out := slices.Clone(names)
			for j := i; j < len(out); j++ {
				out[j] = quoteIdent(out[j])
			}
			return out
		}
	}
	return names
}

// fingerprint is the FNV-1a hash of the lower-cased template.
func fingerprint(s Statement) uint64 { return HashString(FNVOffset, s.templateSQL(), true) }

// FNVOffset is the offset basis HashString's FNV-1a hashes start from.
const FNVOffset = 14695981039346656037

// HashString extends the FNV-1a hash h by s, or by strings.ToLower(s) when
// lower is set: an ASCII s is lowered byte by byte, not copied.
func HashString(h uint64, s string, lower bool) uint64 {
	if lower && strings.ContainsFunc(s, func(r rune) bool { return r >= utf8.RuneSelf }) {
		s = strings.ToLower(s)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if lower && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// IsWrite reports whether the statement modifies data.
func IsWrite(s Statement) bool {
	switch s.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt, *BulkInsertStmt:
		return true
	default:
		return false
	}
}

// WritePredicates returns the WHERE predicates of a write statement (nil
// for inserts). The MI recommender analyzes missing indexes for every
// statement "except inserts, updates, and deletes without predicates"
// (§5.2) — this helper is how callers make that distinction.
func WritePredicates(s Statement) []Predicate {
	switch st := s.(type) {
	case *UpdateStmt:
		return st.Where
	case *DeleteStmt:
		return st.Where
	default:
		return nil
	}
}

// Tables returns the lowercased names of the tables a statement
// references — a SELECT's FROM chain in order (a self-join once), a
// write's target — and nil for DDL. These are the only tables whose
// indexes can enter the statement's plan, which is what lets the
// plan-cost cache key on the what-if overlay restricted to them.
func Tables(s Statement) []string {
	switch st := s.(type) {
	case *SelectStmt:
		out := []string{strings.ToLower(st.From.Table)}
	joins:
		for _, j := range st.Joins {
			t := strings.ToLower(j.Table.Table)
			for _, seen := range out {
				if seen == t {
					continue joins
				}
			}
			out = append(out, t)
		}
		return out
	case *InsertStmt:
		return []string{strings.ToLower(st.Table)}
	case *UpdateStmt:
		return []string{strings.ToLower(st.Table)}
	case *DeleteStmt:
		return []string{strings.ToLower(st.Table)}
	case *BulkInsertStmt:
		return []string{strings.ToLower(st.Table)}
	default:
		return nil
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
