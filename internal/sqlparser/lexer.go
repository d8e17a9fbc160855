// Package sqlparser implements the SQL dialect understood by the engine: a
// T-SQL-flavoured subset covering SELECT (joins, GROUP BY, ORDER BY, TOP,
// aggregates), INSERT, UPDATE, DELETE, BULK INSERT, and index/table DDL.
// The parser produces an AST that the optimizer plans, the Query Store
// fingerprints, and the recommenders analyze for sargable predicates, join,
// group-by and order-by columns.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp    // = < > <= >= <> !=
	tokPunct // ( ) , * . ;
	tokKeyword
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"JOIN": true, "INNER": true, "ON": true, "GROUP": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "TOP": true, "AS": true,
	"INSERT": true, "INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "DROP": true, "TABLE": true, "INDEX": true,
	"UNIQUE": true, "CLUSTERED": true, "NONCLUSTERED": true, "INCLUDE": true,
	"PRIMARY": true, "KEY": true, "NOT": true, "NULL": true, "COUNT": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "BULK": true,
	"DATASOURCE": true, "BETWEEN": true, "WITH": true, "ONLINE": true,
	"DISTINCT": true,
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(rune(c)):
			l.lexIdent()
		case c >= '0' && c <= '9':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '-' || c == '+':
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '=' || c == '<' || c == '>' || c == '!':
			l.lexOp()
		case strings.ContainsRune("(),*.;?", rune(c)):
			l.toks = append(l.toks, token{tokPunct, string(c), l.pos})
			l.pos++
		case c == '@' || c == '#' || c == '[':
			// @variables, #temp tables and [bracketed idents] are lexed as
			// identifiers; the parser decides what to do with them.
			if err := l.lexSpecialIdent(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("sqlparser: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	text := l.src[start:l.pos]
	if keywords[strings.ToUpper(text)] {
		l.toks = append(l.toks, token{tokKeyword, strings.ToUpper(text), start})
	} else {
		l.toks = append(l.toks, token{tokIdent, text, start})
	}
}

func (l *lexer) lexSpecialIdent() error {
	start := l.pos
	if l.src[l.pos] == '[' {
		end := strings.IndexByte(l.src[start:], ']')
		switch end {
		case -1:
			return fmt.Errorf("sqlparser: unterminated bracketed identifier at %d", start)
		case 1:
			return fmt.Errorf("sqlparser: empty bracketed identifier at %d", start)
		}
		l.toks = append(l.toks, token{tokIdent, l.src[start+1 : start+end], start})
		l.pos = start + end + 1
		return nil
	}
	l.pos++ // consume @ or #
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
	return nil
}

// plainIdent reports whether name, written without brackets, lexes
// back as that same single identifier: an identifier start (or @ or #)
// followed only by identifier bytes, and not a keyword. It reads name
// byte by byte, as the lexer does, and allocates nothing.
func plainIdent(name string) bool {
	if name == "" {
		return false
	}
	special := name[0] == '@' || name[0] == '#'
	if !special && !isIdentStart(rune(name[0])) {
		return false
	}
	var upper [12]byte // the longest keyword, NONCLUSTERED
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '_', i == 0:
		case c < utf8.RuneSelf || !isIdentPart(rune(c)):
			return false
		}
		if i < len(upper) {
			upper[i] = c
		}
	}
	return special || len(name) > len(upper) || !keywords[string(upper[:len(name)])]
}

// quoteIdent renders an identifier so that it lexes back unchanged:
// bracketed unless plainIdent. The empty name renders as itself.
func quoteIdent(name string) string {
	if name == "" || plainIdent(name) {
		return name
	}
	return "[" + name + "]"
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' || l.src[l.pos] == '+' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9') {
			l.pos++
			digits++
		}
	}
	if digits == 0 {
		return fmt.Errorf("sqlparser: malformed number at %d", start)
	}
	// An exponent (1e+06, as large and small floats render) needs at
	// least one digit; a bare "e" after a number is the next token.
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		exp := l.pos + 1
		if exp < len(l.src) && (l.src[exp] == '+' || l.src[exp] == '-') {
			exp++
		}
		if exp < len(l.src) && l.src[exp] >= '0' && l.src[exp] <= '9' {
			l.pos = exp
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		}
	}
	l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
	return nil
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{tokString, b.String(), start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlparser: unterminated string at %d", start)
}

func (l *lexer) lexOp() {
	start := l.pos
	c := l.src[l.pos]
	l.pos++
	if l.pos < len(l.src) {
		two := string(c) + string(l.src[l.pos])
		switch two {
		case "<=", ">=", "<>", "!=":
			l.pos++
			l.toks = append(l.toks, token{tokOp, two, start})
			return
		}
	}
	l.toks = append(l.toks, token{tokOp, string(c), start})
}
