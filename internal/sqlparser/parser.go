package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"autoindex/internal/schema"
	"autoindex/internal/value"
)

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// MustParse parses src and panics on error; for tests and generators whose
// input is known-valid.
func MustParse(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqlparser: %s (near position %d in %q)", fmt.Sprintf(format, args...), p.peek().pos, truncate(p.src, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

func (p *parser) expectKeyword(kw string) error {
	t := p.peek()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf("expected %s, got %q", kw, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	t := p.peek()
	if t.kind != tokPunct || t.text != s {
		return p.errf("expected %q, got %q", s, t.text)
	}
	p.next()
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "BULK":
		return p.parseBulkInsert()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	s := &SelectStmt{}
	if p.acceptKeyword("TOP") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after TOP")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n <= 0 {
			return nil, p.errf("invalid TOP count %q", t.text)
		}
		p.next()
		s.Top = n
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	s.From = from
	for {
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		j, err := p.parseJoin()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, j)
	}
	if p.acceptKeyword("WHERE") {
		preds, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		s.Where = preds
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, c)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Col: c}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.peek()
	if t.kind == tokPunct && t.text == "*" {
		p.next()
		return SelectItem{Star: true}, nil
	}
	if t.kind == tokKeyword {
		var agg AggFunc
		switch t.text {
		case "COUNT":
			agg = AggCount
		case "SUM":
			agg = AggSum
		case "AVG":
			agg = AggAvg
		case "MIN":
			agg = AggMin
		case "MAX":
			agg = AggMax
		}
		if agg != AggNone {
			p.next()
			if err := p.expectPunct("("); err != nil {
				return SelectItem{}, err
			}
			if agg == AggCount && p.acceptPunct("*") {
				if err := p.expectPunct(")"); err != nil {
					return SelectItem{}, err
				}
				return SelectItem{Agg: AggCount}, nil
			}
			c, err := p.parseColRef()
			if err != nil {
				return SelectItem{}, err
			}
			if err := p.expectPunct(")"); err != nil {
				return SelectItem{}, err
			}
			if agg == AggCount {
				agg = AggCountCol
			}
			return SelectItem{Agg: agg, Col: c}, nil
		}
	}
	c, err := p.parseColRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: c}, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	first, err := p.expectIdent()
	if err != nil {
		return ColRef{}, err
	}
	if p.acceptPunct(".") {
		col, err := p.expectIdent()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: first, Column: col}, nil
	}
	return ColRef{Column: first}, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseJoin() (Join, error) {
	ref, err := p.parseTableRef()
	if err != nil {
		return Join{}, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return Join{}, err
	}
	left, err := p.parseColRef()
	if err != nil {
		return Join{}, err
	}
	t := p.peek()
	if t.kind != tokOp || t.text != "=" {
		return Join{}, p.errf("only equi-joins are supported, got %q", t.text)
	}
	p.next()
	right, err := p.parseColRef()
	if err != nil {
		return Join{}, err
	}
	return Join{Table: ref, Left: left, Right: right}, nil
}

func (p *parser) parseWhere() ([]Predicate, error) {
	var preds []Predicate
	for {
		pred, err := p.parsePredicate()
		if err != nil {
			return nil, err
		}
		preds = append(preds, pred...)
		if !p.acceptKeyword("AND") {
			break
		}
	}
	return preds, nil
}

// parsePredicate parses one predicate; BETWEEN expands to two conjuncts.
func (p *parser) parsePredicate() ([]Predicate, error) {
	col, err := p.parseColRef()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("BETWEEN") {
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		return []Predicate{
			{Col: col, Op: OpGE, Val: lo},
			{Col: col, Op: OpLE, Val: hi},
		}, nil
	}
	t := p.peek()
	if t.kind != tokOp {
		return nil, p.errf("expected comparison operator, got %q", t.text)
	}
	var op CompareOp
	switch t.text {
	case "=":
		op = OpEQ
	case "<>", "!=":
		op = OpNE
	case "<":
		op = OpLT
	case "<=":
		op = OpLE
	case ">":
		op = OpGT
	case ">=":
		op = OpGE
	default:
		return nil, p.errf("unsupported operator %q", t.text)
	}
	p.next()
	v, err := p.parseLiteral()
	if err != nil {
		return nil, err
	}
	return []Predicate{{Col: col, Op: op, Val: v}}, nil
}

func (p *parser) parseLiteral() (value.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return value.Value{}, p.errf("bad float %q", t.text)
			}
			if f == 0 {
				f = 0 // -0.0 would render as "-0", which re-parses as the integer 0
			}
			return value.NewFloat(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return value.Value{}, p.errf("bad integer %q", t.text)
		}
		return value.NewInt(i), nil
	case tokString:
		p.next()
		return value.NewString(t.text), nil
	case tokKeyword:
		if t.text == "NULL" {
			p.next()
			return value.NewNull(), nil
		}
	}
	return value.Value{}, p.errf("expected literal, got %q", t.text)
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptPunct("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, c)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row value.Row
		for {
			v, err := p.parseLiteral()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptPunct(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokOp || t.text != "=" {
			return nil, p.errf("expected = in SET")
		}
		p.next()
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, Assignment{Column: col, Val: v})
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		preds, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		stmt.Where = preds
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		preds, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		stmt.Where = preds
	}
	return stmt, nil
}

func (p *parser) parseBulkInsert() (Statement, error) {
	p.next() // BULK
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("DATASOURCE"); err != nil {
		return nil, err
	}
	src, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &BulkInsertStmt{Table: table, Source: src, RowEstimate: 1000}, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.acceptKeyword("UNIQUE")
	kind := schema.NonClustered
	if p.acceptKeyword("CLUSTERED") {
		kind = schema.Clustered
	} else {
		p.acceptKeyword("NONCLUSTERED")
	}
	if p.acceptKeyword("INDEX") {
		return p.parseCreateIndex(unique, kind)
	}
	if unique || kind == schema.Clustered {
		return nil, p.errf("expected INDEX")
	}
	if p.acceptKeyword("TABLE") {
		return p.parseCreateTable()
	}
	return nil, p.errf("expected TABLE or INDEX after CREATE")
}

func (p *parser) parseCreateIndex(unique bool, kind schema.IndexKind) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	def := schema.IndexDef{Name: name, Table: table, Kind: kind, Unique: unique}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		// Optional ASC/DESC per key column; ordering direction is parsed
		// and discarded (indexes scan both ways).
		p.acceptKeyword("ASC")
		p.acceptKeyword("DESC")
		def.KeyColumns = append(def.KeyColumns, c)
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if p.acceptKeyword("INCLUDE") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			def.IncludedColumns = append(def.IncludedColumns, c)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	stmt := &CreateIndexStmt{Index: def}
	if p.acceptKeyword("WITH") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ONLINE"); err != nil {
			return nil, err
		}
		t := p.peek()
		if t.kind != tokOp || t.text != "=" {
			return nil, p.errf("expected = in WITH (ONLINE = ON)")
		}
		p.next()
		onTok := p.peek()
		if onTok.kind != tokIdent && onTok.kind != tokKeyword {
			return nil, p.errf("expected ON or OFF, got %q", onTok.text)
		}
		p.next()
		stmt.Online = strings.EqualFold(onTok.text, "ON")
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

func (p *parser) parseCreateTable() (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := schema.Table{Name: name}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		if p.acceptKeyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				t.PrimaryKey = append(t.PrimaryKey, c)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		} else {
			colName, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			typeTok := p.peek()
			if typeTok.kind != tokIdent && typeTok.kind != tokKeyword {
				return nil, p.errf("expected type for column %s", colName)
			}
			p.next()
			kind, err := value.ParseKind(typeTok.text)
			if err != nil {
				return nil, p.errf("column %s: %v", colName, err)
			}
			col := schema.Column{Name: colName, Kind: kind, Nullable: true}
			if p.acceptKeyword("NOT") {
				if err := p.expectKeyword("NULL"); err != nil {
					return nil, err
				}
				col.Nullable = false
			} else {
				p.acceptKeyword("NULL")
			}
			t.Columns = append(t.Columns, col)
		}
		if !p.acceptPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Table: t}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("INDEX"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropIndexStmt{Name: name, Table: table}, nil
}
