package sqlparser

import (
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"autoindex/internal/value"
)

func TestParseSelectBasics(t *testing.T) {
	stmt := MustParse(`SELECT id, name FROM users WHERE age >= 21 AND city = 'NYC' ORDER BY name DESC`)
	s, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if len(s.Items) != 2 || s.Items[0].Col.Column != "id" {
		t.Fatalf("items: %+v", s.Items)
	}
	if s.From.Table != "users" {
		t.Fatalf("from: %+v", s.From)
	}
	if len(s.Where) != 2 || s.Where[0].Op != OpGE || s.Where[1].Val.S != "NYC" {
		t.Fatalf("where: %+v", s.Where)
	}
	if len(s.OrderBy) != 1 || !s.OrderBy[0].Desc {
		t.Fatalf("orderby: %+v", s.OrderBy)
	}
}

func TestParseTopStarAggregates(t *testing.T) {
	s := MustParse(`SELECT TOP 10 * FROM t`).(*SelectStmt)
	if s.Top != 10 || !s.Items[0].Star {
		t.Fatalf("%+v", s)
	}
	s = MustParse(`SELECT status, COUNT(*), SUM(amount), AVG(x), MIN(y), MAX(z) FROM t GROUP BY status`).(*SelectStmt)
	wantAggs := []AggFunc{AggNone, AggCount, AggSum, AggAvg, AggMin, AggMax}
	for i, w := range wantAggs {
		if s.Items[i].Agg != w {
			t.Fatalf("item %d agg = %v, want %v", i, s.Items[i].Agg, w)
		}
	}
	if len(s.GroupBy) != 1 {
		t.Fatalf("groupby: %+v", s.GroupBy)
	}
	if _, err := Parse(`SELECT COUNT(x) FROM t`); err != nil {
		t.Fatalf("COUNT(col): %v", err)
	}
}

func TestParseJoinWithAliases(t *testing.T) {
	s := MustParse(`SELECT o.id, c.name FROM orders o JOIN customers AS c ON o.cust_id = c.id WHERE c.region = 'east'`).(*SelectStmt)
	if s.From.Alias != "o" {
		t.Fatalf("alias: %+v", s.From)
	}
	if len(s.Joins) != 1 || s.Joins[0].Table.Alias != "c" {
		t.Fatalf("joins: %+v", s.Joins)
	}
	j := s.Joins[0]
	if j.Left.Table != "o" || j.Right.Column != "id" {
		t.Fatalf("join cols: %+v", j)
	}
	// INNER JOIN spelling.
	if _, err := Parse(`SELECT a FROM x INNER JOIN y ON x.a = y.b`); err != nil {
		t.Fatal(err)
	}
}

func TestParseBetweenExpandsToConjuncts(t *testing.T) {
	s := MustParse(`SELECT a FROM t WHERE b BETWEEN 3 AND 9`).(*SelectStmt)
	if len(s.Where) != 2 || s.Where[0].Op != OpGE || s.Where[1].Op != OpLE {
		t.Fatalf("between: %+v", s.Where)
	}
	if s.Where[0].Val.I != 3 || s.Where[1].Val.I != 9 {
		t.Fatalf("bounds: %+v", s.Where)
	}
}

func TestParseWrites(t *testing.T) {
	ins := MustParse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`).(*InsertStmt)
	if len(ins.Rows) != 2 || ins.Rows[1][1].S != "y" {
		t.Fatalf("%+v", ins)
	}
	up := MustParse(`UPDATE t SET a = 5, b = 'z' WHERE id = 3`).(*UpdateStmt)
	if len(up.Set) != 2 || up.Set[0].Val.I != 5 || len(up.Where) != 1 {
		t.Fatalf("%+v", up)
	}
	del := MustParse(`DELETE FROM t WHERE a < 0`).(*DeleteStmt)
	if len(del.Where) != 1 || del.Where[0].Op != OpLT {
		t.Fatalf("%+v", del)
	}
	blk := MustParse(`BULK INSERT t FROM DATASOURCE feed1`).(*BulkInsertStmt)
	if blk.Source != "feed1" {
		t.Fatalf("%+v", blk)
	}
}

func TestParseDDL(t *testing.T) {
	ct := MustParse(`CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR, v FLOAT, PRIMARY KEY (id))`).(*CreateTableStmt)
	if ct.Table.Name != "t" || len(ct.Table.Columns) != 3 || ct.Table.Columns[0].Nullable {
		t.Fatalf("%+v", ct.Table)
	}
	if len(ct.Table.PrimaryKey) != 1 {
		t.Fatalf("%+v", ct.Table.PrimaryKey)
	}
	ci := MustParse(`CREATE UNIQUE NONCLUSTERED INDEX ix ON t (a, b DESC) INCLUDE (c, d) WITH (ONLINE = ON)`).(*CreateIndexStmt)
	if !ci.Index.Unique || len(ci.Index.KeyColumns) != 2 || len(ci.Index.IncludedColumns) != 2 || !ci.Online {
		t.Fatalf("%+v", ci)
	}
	di := MustParse(`DROP INDEX ix ON t`).(*DropIndexStmt)
	if di.Name != "ix" || di.Table != "t" {
		t.Fatalf("%+v", di)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELEC x FROM t`,
		`SELECT FROM t`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t WHERE a ==`,
		`INSERT INTO t VALUES`,
		`SELECT a FROM t JOIN u ON a < b`, // only equi-joins
		`SELECT a FROM t; SELECT b FROM t`,
		`UPDATE t SET`,
		`SELECT TOP 0 a FROM t`,
		`SELECT a FROM t WHERE a = 'unterminated`,
		`SELECT A FROM[`,
		`SELECT A FROM []`,
		`SELECT A FROM [t`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestCommentsAndBrackets(t *testing.T) {
	s := MustParse("SELECT a FROM [my table] -- trailing comment\n WHERE a = 1").(*SelectStmt)
	if s.From.Table != "my table" {
		t.Fatalf("%+v", s.From)
	}
}

func TestSQLRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT TOP 5 a, b FROM t WHERE c = 1 AND d > 2.5 ORDER BY a`,
		`SELECT o.id FROM orders o JOIN c ON o.x = c.y WHERE c.z = 'v' GROUP BY o.id`,
		`INSERT INTO t (a) VALUES (1)`,
		`UPDATE t SET a = 1 WHERE b = 'x'`,
		`DELETE FROM t WHERE a >= 0`,
		`BULK INSERT t FROM DATASOURCE src`,
		`CREATE NONCLUSTERED INDEX ix ON t (a) INCLUDE (b)`,
		`SELECT a FROM [my table]`,
	}
	for _, src := range srcs {
		stmt := MustParse(src)
		re, err := Parse(stmt.SQL())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", src, stmt.SQL(), err)
		}
		if re.SQL() != stmt.SQL() {
			t.Fatalf("round trip unstable: %q vs %q", re.SQL(), stmt.SQL())
		}
	}
}

func TestQuoteIdent(t *testing.T) {
	for name, want := range map[string]string{
		"orders":        "orders",
		"Cust_id2":      "Cust_id2",
		"#tmp":          "#tmp",
		"@v":            "@v",
		"":              "",
		"my table":      "[my table]",
		"select":        "[select]",
		"NonClustered":  "[NonClustered]",
		"nonclustereds": "nonclustereds",
		"1t":            "[1t]",
		"a-b":           "[a-b]",
		"#a b":          "[#a b]",
		"caf\u00e9":     "[caf\u00e9]",
	} {
		if got := quoteIdent(name); got != want {
			t.Errorf("quoteIdent(%q) = %q, want %q", name, got, want)
		}
	}
	for _, name := range []string{"orders", "customer_orders"} {
		if n := testing.AllocsPerRun(100, func() { quoteIdent(name) }); n != 0 {
			t.Errorf("quoteIdent(%q) allocates %v times, want 0", name, n)
		}
	}
}

func TestFingerprintIgnoresLiterals(t *testing.T) {
	a := MustParse(`SELECT a FROM t WHERE b = 1 AND c > 5`)
	b := MustParse(`SELECT a FROM t WHERE b = 99 AND c > -3`)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same template must share fingerprint")
	}
	c := MustParse(`SELECT a FROM t WHERE b = 1 AND c < 5`)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different operators must differ")
	}
	// Multi-row inserts share the single-row fingerprint.
	i1 := MustParse(`INSERT INTO t (a) VALUES (1)`)
	i2 := MustParse(`INSERT INTO t (a) VALUES (1), (2), (3)`)
	if i1.Fingerprint() != i2.Fingerprint() {
		t.Fatal("batch size must not fragment fingerprints")
	}
}

// TestHashStringIsFNVOfLowered: HashString folds in exactly the bytes of
// s, or of strings.ToLower(s), as hash/fnv would, ASCII or not.
func TestHashStringIsFNVOfLowered(t *testing.T) {
	for _, s := range []string{"", "SELECT a FROM T", "ix_Ab [PK_t]", "ÀB_Ǆ", "İx", "Σ_ς"} {
		for _, lower := range []bool{false, true} {
			want := s
			if lower {
				want = strings.ToLower(s)
			}
			h := fnv.New64a()
			h.Write([]byte(want))
			if got := HashString(FNVOffset, s, lower); got != h.Sum64() {
				t.Errorf("HashString(%q, lower %v) = %#x, want FNV-1a of %q %#x", s, lower, got, want, h.Sum64())
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { HashString(FNVOffset, "SELECT A FROM T", true) }); n != 0 {
		t.Errorf("hashing an ASCII string lowered allocates %.0f times", n)
	}
}

func TestIsWriteAndWritePredicates(t *testing.T) {
	if IsWrite(MustParse(`SELECT a FROM t`)) {
		t.Fatal("select is not a write")
	}
	for _, src := range []string{
		`INSERT INTO t (a) VALUES (1)`,
		`UPDATE t SET a = 1`,
		`DELETE FROM t`,
		`BULK INSERT t FROM DATASOURCE s`,
	} {
		if !IsWrite(MustParse(src)) {
			t.Errorf("%q is a write", src)
		}
	}
	if WritePredicates(MustParse(`UPDATE t SET a = 1`)) != nil {
		t.Fatal("update without WHERE has no predicates")
	}
	if len(WritePredicates(MustParse(`DELETE FROM t WHERE a = 1`))) != 1 {
		t.Fatal("delete predicates")
	}
}

// Property: fingerprints are stable under literal substitution for a
// family of generated predicates.
func TestQuickFingerprintLiteralInvariance(t *testing.T) {
	f := func(v1, v2 int32, s1, s2 string) bool {
		s1 = strings.ReplaceAll(s1, "'", "")
		s2 = strings.ReplaceAll(s2, "'", "")
		q1 := MustParse(
			`SELECT a FROM t WHERE b = ` + value.NewInt(int64(v1)).String() +
				` AND c = ` + value.NewString(s1).String())
		q2 := MustParse(
			`SELECT a FROM t WHERE b = ` + value.NewInt(int64(v2)).String() +
				` AND c = ` + value.NewString(s2).String())
		return q1.Fingerprint() == q2.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeNumbersAndFloats(t *testing.T) {
	s := MustParse(`SELECT a FROM t WHERE b = -5 AND c > -2.5`).(*SelectStmt)
	if s.Where[0].Val.I != -5 {
		t.Fatalf("%+v", s.Where[0])
	}
	if s.Where[1].Val.F != -2.5 {
		t.Fatalf("%+v", s.Where[1])
	}
}

func TestNullLiteral(t *testing.T) {
	s := MustParse(`SELECT a FROM t WHERE b = NULL`).(*SelectStmt)
	if !s.Where[0].Val.IsNull() {
		t.Fatalf("%+v", s.Where[0])
	}
}

func TestTables(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		{`SELECT a FROM Orders`, []string{"orders"}},
		{`SELECT o.a FROM Orders o WHERE o.b = 1`, []string{"orders"}},
		{`SELECT o.a FROM orders o JOIN Customers c ON o.cid = c.id JOIN items i ON i.oid = o.id`, []string{"orders", "customers", "items"}},
		{`SELECT a.id FROM emp a JOIN Emp b ON a.boss = b.id JOIN dept d ON a.dept = d.id`, []string{"emp", "dept"}},
		{`INSERT INTO Orders (id) VALUES (1)`, []string{"orders"}},
		{`UPDATE Orders SET a = 1 WHERE b = 2`, []string{"orders"}},
		{`DELETE FROM Orders WHERE b = 2`, []string{"orders"}},
		{`BULK INSERT Orders FROM DATASOURCE feed`, []string{"orders"}},
		{`CREATE TABLE t (id BIGINT NOT NULL, PRIMARY KEY (id))`, nil},
		{`CREATE INDEX ix ON t (a)`, nil},
		{`DROP INDEX ix ON t`, nil},
	} {
		if got := Tables(MustParse(tc.sql)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tables(%s) = %v, want %v", tc.sql, got, tc.want)
		}
	}
}

// FuzzParse checks that rendering is a fixed point of parsing: whenever
// Parse accepts an input, it accepts the statement's SQL() too, and the
// re-parse renders and fingerprints exactly as the first parse did.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		`SELECT TOP 5 a, b FROM t WHERE c = 1 AND d > 2.5 ORDER BY a`,
		`SELECT o.id, COUNT(*) FROM orders AS o INNER JOIN c ON o.x = c.y WHERE c.z = 'it''s' GROUP BY o.id`,
		`SELECT a FROM t WHERE b BETWEEN -3 AND 9.25 AND c != NULL ORDER BY a DESC, b ASC`,
		`INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`,
		`UPDATE t SET a = 1, b = 'y' WHERE c <= 0`,
		`DELETE FROM #tmp WHERE @v >= 0;`,
		`BULK INSERT t FROM DATASOURCE src`,
		`CREATE TABLE t (id BIGINT NOT NULL, name VARCHAR NULL, PRIMARY KEY (id))`,
		`CREATE UNIQUE CLUSTERED INDEX ix ON t (a DESC) INCLUDE (b) WITH (ONLINE = ON)`,
		`DROP INDEX ix ON t`,
		`SELECT a FROM [my table] -- comment`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		sql := stmt.SQL()
		re, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(%q) succeeds but its SQL %q does not re-parse: %v", src, sql, err)
		}
		if got := re.SQL(); got != sql {
			t.Fatalf("Parse(%q): SQL %q re-renders as %q", src, sql, got)
		}
		if re.Fingerprint() != stmt.Fingerprint() {
			t.Fatalf("Parse(%q): fingerprint changes on re-parse of %q", src, sql)
		}
	})
}
