package schema

import (
	"slices"
	"strings"
	"testing"

	"autoindex/internal/value"
)

func sampleTable() *Table {
	return &Table{
		Name: "orders",
		Columns: []Column{
			{Name: "id", Kind: value.Int},
			{Name: "customer_id", Kind: value.Int},
			{Name: "status", Kind: value.String},
			{Name: "amount", Kind: value.Float},
		},
		PrimaryKey: []string{"id"},
	}
}

func TestTableLookupCaseInsensitive(t *testing.T) {
	tab := sampleTable()
	if tab.ColumnIndex("CUSTOMER_ID") != 1 {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := tab.Column("nope"); ok {
		t.Fatal("found missing column")
	}
	if tab.RowWidth() <= 0 {
		t.Fatal("row width")
	}
}

func TestTableValidate(t *testing.T) {
	tab := sampleTable()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := sampleTable()
	dup.Columns = append(dup.Columns, Column{Name: "ID", Kind: value.Int})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate column must fail")
	}
	badPK := sampleTable()
	badPK.PrimaryKey = []string{"ghost"}
	if err := badPK.Validate(); err == nil {
		t.Fatal("bad PK must fail")
	}
	if err := (&Table{Name: "x"}).Validate(); err == nil {
		t.Fatal("no columns must fail")
	}
}

func TestIndexDefBasics(t *testing.T) {
	def := IndexDef{
		Name: "ix", Table: "orders",
		KeyColumns:      []string{"customer_id"},
		IncludedColumns: []string{"amount"},
	}
	if !def.HasColumn("AMOUNT") || def.HasColumn("status") {
		t.Fatal("HasColumn")
	}
	if !slices.Equal(sampleTable().Ordinals(def.IncludedColumns), []int{3}) {
		t.Fatal("ordinals")
	}
	ddl := def.String()
	if !strings.Contains(ddl, "INCLUDE (amount)") {
		t.Fatalf("ddl: %s", ddl)
	}
	if err := def.Validate(sampleTable()); err != nil {
		t.Fatal(err)
	}
}

func TestIndexDefValidateErrors(t *testing.T) {
	tab := sampleTable()
	cases := []IndexDef{
		{Name: "", Table: "orders", KeyColumns: []string{"id"}},
		{Name: "ix", Table: "orders"},
		{Name: "ix", Table: "orders", KeyColumns: []string{"ghost"}},
		{Name: "ix", Table: "orders", KeyColumns: []string{"id", "id"}},
		{Name: "ix", Table: "orders", KeyColumns: []string{"id"}, IncludedColumns: []string{"id"}},
	}
	for i, def := range cases {
		if err := def.Validate(tab); err == nil {
			t.Errorf("case %d should fail: %+v", i, def)
		}
	}
}

func TestKeyPrefixAndSameKey(t *testing.T) {
	a := IndexDef{Table: "t", KeyColumns: []string{"a"}}
	ab := IndexDef{Table: "t", KeyColumns: []string{"a", "b"}}
	ba := IndexDef{Table: "t", KeyColumns: []string{"b", "a"}}
	if !a.KeyPrefixOf(ab) || ab.KeyPrefixOf(a) {
		t.Fatal("prefix")
	}
	if a.KeyPrefixOf(ba) {
		t.Fatal("(a) is not a prefix of (b,a)")
	}
	dup := IndexDef{Table: "t", KeyColumns: []string{"A"}}
	if !a.SameKey(dup) {
		t.Fatal("same key is case-insensitive")
	}
	if a.SameKey(ab) {
		t.Fatal("(a) != (a,b)")
	}
}

func TestSignatureStable(t *testing.T) {
	a := IndexDef{Table: "T", KeyColumns: []string{"A", "b"}, IncludedColumns: []string{"C"}}
	b := IndexDef{Table: "t", KeyColumns: []string{"a", "B"}, IncludedColumns: []string{"c"}}
	if a.Signature() != b.Signature() {
		t.Fatal("signatures must be case-insensitive")
	}
	c := IndexDef{Table: "t", KeyColumns: []string{"b", "a"}, IncludedColumns: []string{"c"}}
	if a.Signature() == c.Signature() {
		t.Fatal("key order matters")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := IndexDef{Table: "t", KeyColumns: []string{"a"}, IncludedColumns: []string{"b"}}
	b := a.Clone()
	b.KeyColumns[0] = "z"
	b.IncludedColumns[0] = "z"
	if a.KeyColumns[0] != "a" || a.IncludedColumns[0] != "b" {
		t.Fatal("clone aliases the original")
	}
}

func TestEstimatedSizeBytes(t *testing.T) {
	tab := sampleTable()
	narrow := IndexDef{Table: "orders", KeyColumns: []string{"customer_id"}}
	wide := IndexDef{Table: "orders", KeyColumns: []string{"customer_id"}, IncludedColumns: []string{"status", "amount"}}
	ns := narrow.EstimatedSizeBytes(tab, 10000)
	ws := wide.EstimatedSizeBytes(tab, 10000)
	if ns <= 0 || ws <= ns {
		t.Fatalf("sizes: narrow=%d wide=%d", ns, ws)
	}
	// Size scales with row count.
	if narrow.EstimatedSizeBytes(tab, 20000) <= ns {
		t.Fatal("size must grow with rows")
	}
}
