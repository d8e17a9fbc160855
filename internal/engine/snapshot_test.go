package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"autoindex/internal/btree"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/value"
)

func snapshotOf(d *Database) []byte {
	var w snap.Writer
	d.EncodeTo(&w, nil)
	return w.Seal()
}

// snapshotDB covers both storage structures empty and populated: an empty
// heap, an empty clustered table, a heap with a tombstone and a secondary
// index, and a clustered table with a secondary index — after enough
// statements that the Query Store and both DMVs have rows too.
func snapshotDB(t *testing.T) *Database {
	t.Helper()
	d := New(DefaultConfig("snapdb", TierStandard, 7), sim.NewClock())
	mustExec(t, d, `CREATE TABLE raw (a BIGINT, b VARCHAR, c FLOAT)`)
	mustExec(t, d, `CREATE TABLE keyed (id BIGINT NOT NULL, v VARCHAR, PRIMARY KEY (id))`)
	mustExec(t, d, `CREATE TABLE events (seq BIGINT, kind VARCHAR, cost FLOAT)`)
	mustExec(t, d, `CREATE TABLE orders (id BIGINT NOT NULL, customer_id BIGINT, amount FLOAT, PRIMARY KEY (id))`)
	for i := 0; i < 500; i++ {
		mustExec(t, d, sprintf(`INSERT INTO events (seq, kind, cost) VALUES (%d, 'k%d', %d.25)`, i, i%7, i))
		mustExec(t, d, sprintf(`INSERT INTO orders (id, customer_id, amount) VALUES (%d, %d, %d.5)`, i, i%11, i))
	}
	mustExec(t, d, `DELETE FROM events WHERE seq = 17`)
	mustExec(t, d, `CREATE INDEX ix_events_kind ON events (kind) INCLUDE (cost)`)
	mustExec(t, d, `CREATE INDEX ix_orders_cust ON orders (customer_id)`)
	d.RebuildAllStats()
	mustExec(t, d, `SELECT seq FROM events WHERE kind = 'k3'`)
	mustExec(t, d, `SELECT amount FROM orders WHERE customer_id = 4`)
	mustExec(t, d, `SELECT a FROM raw WHERE c > 1.5`)
	mustExec(t, d, `SELECT seq FROM events WHERE seq = 40`)
	if d.QueryStore().Len() == 0 || d.MissingIndexDMV().Len() == 0 || len(d.UsageDMV().All()) == 0 {
		t.Fatal("snapshotDB must leave rows in the Query Store and in both DMVs")
	}
	return d
}

// A database must read its own snapshot back to the byte, whatever it
// holds. The two empty databases are the regression: heap row width and
// tree order are scalars, and reading them through the element-count
// guard refused any snapshot with fewer bytes left than their value.
func TestSnapshotRoundTrip(t *testing.T) {
	only := func(ddl string) func(*testing.T) *Database {
		return func(t *testing.T) *Database {
			d := New(DefaultConfig("snapdb", TierStandard, 7), sim.NewClock())
			mustExec(t, d, ddl)
			return d
		}
	}
	for name, build := range map[string]func(*testing.T) *Database{
		"empty heap table":      only(`CREATE TABLE raw (a BIGINT, b VARCHAR, c VARCHAR, d FLOAT)`),
		"empty clustered table": only(`CREATE TABLE keyed (id BIGINT NOT NULL, v VARCHAR, PRIMARY KEY (id))`),
		"rows and indexes":      snapshotDB,
	} {
		src := build(t)
		blob := snapshotOf(src)
		dst := New(src.Config(), sim.NewClock())
		r, err := snap.Open(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.DecodeFrom(r, nil); err != nil {
			t.Errorf("%s: the database cannot read its own snapshot: %v", name, err)
			continue
		}
		if err := r.Done(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !bytes.Equal(snapshotOf(dst), blob) {
			t.Errorf("%s: encode → decode → encode is not byte-identical", name)
		}
	}
}

// A rehydrated database answers queries as the original does and takes
// writes on every table, the empty ones included.
func TestSnapshotRehydratedDatabaseServes(t *testing.T) {
	src := snapshotDB(t)
	dst := New(src.Config(), sim.NewClock())
	r, err := snap.Open(snapshotOf(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.DecodeFrom(r, nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT seq, cost FROM events WHERE kind = 'k3'`,
		`SELECT id, amount FROM orders WHERE customer_id = 4`,
		`SELECT a FROM raw`,
		`SELECT id FROM keyed`,
	} {
		want, got := mustExec(t, src, q), mustExec(t, dst, q)
		if len(got.Rows) != len(want.Rows) {
			t.Errorf("%s: %d rows after rehydration, want %d", q, len(got.Rows), len(want.Rows))
		}
	}
	mustExec(t, dst, `INSERT INTO raw (a, b, c) VALUES (1, 'x', 2.5)`)
	mustExec(t, dst, `INSERT INTO keyed (id, v) VALUES (1, 'x')`)
}

// A snapshot that fails anywhere — here in its very last bytes, inside
// the index-usage rows, after the Query Store and the missing-index DMV
// decoded cleanly — must leave the database and all three stores as they
// were.
func TestSnapshotDecodeErrorLeavesDatabaseUnchanged(t *testing.T) {
	var w snap.Writer
	snapshotDB(t).EncodeTo(&w, nil)
	blob := w.Seal()
	body := blob[len(blob)-w.Len():]

	dst, _ := testDB(t)
	mustExec(t, dst, `SELECT id FROM orders WHERE customer_id = 3`)
	before := snapshotOf(dst)
	for _, cut := range []int{1, 40, len(body) / 2} {
		err := dst.DecodeFrom(snap.NewBodyReader(body[:len(body)-cut]), nil)
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Fatalf("cut %d: want ErrCorrupt, got %v", cut, err)
		}
		if !bytes.Equal(snapshotOf(dst), before) {
			t.Fatalf("cut %d: failed decode changed the database", cut)
		}
	}
}

func sharedCatalogFor(def *schema.Table, rows ...value.Row) *SharedCatalog {
	sc := NewSharedCatalog()
	sc.AddTable(def, rows)
	return sc
}

// Every structural check of the decoder, fed a hand-built body that
// violates exactly that check.
func TestSnapshotDecodeRejects(t *testing.T) {
	heapDef := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: value.Int}}}
	pkDef := &schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: value.Int}}, PrimaryKey: []string{"a"}}
	row := value.Row{value.NewInt(1)}
	tableDef := func(w *snap.Writer, def *schema.Table) {
		w.Bool(false)
		walkTableDef(snap.Encoder(w), def)
	}
	emptyHeap := func(w *snap.Writer) {
		w.Uvarint(8) // row width
		w.Uvarint(0) // rows
		w.Uvarint(0) // free list
	}
	leaf := func(w *snap.Writer, keys ...int64) {
		w.Uvarint(nodeLeaf)
		w.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			w.Uvarint(rowInline)
			w.Row(value.Row{value.NewInt(k)})
		}
		for range keys {
			w.Uvarint(rowInline)
			w.Row(row)
		}
	}
	table := func(r *snap.Reader) { decodeTable(r, NewSharedCatalog(), "t") }
	tree := func(r *snap.Reader) { decodeTree(r, NewSharedCatalog(), sharedStore{}) }
	index := func(r *snap.Reader) {
		walkIndex(snap.Decoder(r), &indexData{}, "ix", map[string]*tableData{"t": {def: heapDef}}, NewSharedCatalog())
	}
	// A catalog whose clustered tree of t is one interior node over two
	// leaves, so its Dump has ordinals 0 (interior), 1 and 2 (leaves).
	var pkRows []value.Row
	for i := range btree.DefaultOrder {
		pkRows = append(pkRows, value.Row{value.NewInt(int64(i))})
	}
	pkCatalog := sharedCatalogFor(pkDef, pkRows...)
	catalogTree := func(r *snap.Reader) { decodeTree(r, pkCatalog, pkCatalog.tableRefs["t"]) }
	sharedLeaf := func(o uint64) func(w *snap.Writer) {
		return func(w *snap.Writer) {
			w.Uvarint(64)
			w.Uvarint(1)
			w.Uvarint(nodeShared)
			w.Uvarint(o)
		}
	}
	sharedKey := func(idx uint64) func(w *snap.Writer) {
		return func(w *snap.Writer) {
			w.Uvarint(64)
			w.Uvarint(1)
			w.Uvarint(nodeLeaf)
			w.Uvarint(1)
			w.Uvarint(rowShared)
			w.Uvarint(idx)
			w.Uvarint(rowInline)
			w.Row(row)
		}
	}
	indexBody := func(w *snap.Writer, def schema.IndexDef) {
		walkIndexDef(snap.Encoder(w), &def)
		w.Varint(0) // createdAt
		w.Varint(0) // sizeBytes
		w.Uvarint(64)
		w.Uvarint(1)
		leaf(w)
	}

	// The database walk with no catalog (sc == nil), up to a clustered
	// table t whose tree is shared.
	uncataloged := func(tree func(w *snap.Writer)) func(w *snap.Writer) {
		return func(w *snap.Writer) {
			for i := 0; i < 7; i++ {
				w.Uvarint(0)
			}
			w.Uvarint(0) // statistics versions
			w.Uvarint(1) // tables
			w.String("t")
			tableDef(w, pkDef)
			w.Varint(1)
			w.Bool(true)
			tree(w)
		}
	}
	walk := func(r *snap.Reader) {
		var st dbState
		var rngPos, noisePos uint64
		st.walk(snap.Decoder(r), &rngPos, &noisePos, nil)
	}

	cases := []struct {
		name   string
		build  func(w *snap.Writer)
		decode func(r *snap.Reader)
		want   string
	}{
		{"unknown row tag", func(w *snap.Writer) { w.Uvarint(3) },
			func(r *snap.Reader) { decodeRow(r, NewSharedCatalog(), 0) }, "unknown row tag"},
		{"shared row without a catalog", func(w *snap.Writer) { w.Uvarint(rowShared); w.Uvarint(0) },
			func(r *snap.Reader) { decodeRow(r, NewSharedCatalog(), 0) }, "shared row 0/0"},
		{"shared row past the catalog", func(w *snap.Writer) { w.Uvarint(rowShared); w.Uvarint(1) },
			func(r *snap.Reader) {
				sc := sharedCatalogFor(heapDef, row)
				decodeRow(r, sc, sc.tableRefs["t"].payloads)
			}, "shared row 1/1"},
		{"unknown node tag", func(w *snap.Writer) { w.Uvarint(64); w.Uvarint(1); w.Uvarint(3) }, tree, "unknown node tag 3"},
		{"shared leaf without a catalog", uncataloged(sharedLeaf(0)), walk, "shared leaf 0 is not a leaf of the catalog's 0 nodes"},
		{"shared leaf past the catalog", sharedLeaf(3), catalogTree, "shared leaf 3 is not a leaf of the catalog's 3 nodes"},
		{"shared leaf naming an interior node", sharedLeaf(0), catalogTree, "shared leaf 0 is not a leaf of the catalog's 3 nodes"},
		{"shared key without a catalog", uncataloged(sharedKey(0)), walk, "shared row 0/0"},
		{"shared key past the catalog", sharedKey(btree.DefaultOrder), catalogTree, fmt.Sprintf("shared row %d/%d", btree.DefaultOrder, btree.DefaultOrder)},
		{"tree child out of range", func(w *snap.Writer) {
			w.Uvarint(64)
			w.Uvarint(1)
			w.Uvarint(nodeInterior)
			w.Uvarint(0)
			w.Uvarint(1)
			w.Uvarint(5)
		}, tree, "child index 5 out of range"},
		{"tree with no nodes", func(w *snap.Writer) { w.Uvarint(64); w.Uvarint(0) }, tree, "empty dump"},
		{"tree leaf out of order", func(w *snap.Writer) { w.Uvarint(64); w.Uvarint(1); leaf(w, 2, 1) }, tree, "btree"},
		{"shared definition without a catalog", func(w *snap.Writer) { w.Bool(true) }, table, "shared definition outside its archetype"},
		{"column kind out of range", func(w *snap.Writer) {
			w.Bool(false)
			w.String("t")
			w.Uvarint(1)
			w.String("a")
			w.Uvarint(uint64(value.Time) + 1)
		}, table, "enum value 6 above 5"},
		{"invalid definition", func(w *snap.Writer) { tableDef(w, &schema.Table{Name: "t"}) }, table, `table "t":`},
		{"definition named otherwise", func(w *snap.Writer) {
			tableDef(w, &schema.Table{Name: "u", Columns: heapDef.Columns})
		}, table, `table key "t" names definition "u"`},
		{"clustered without a primary key", func(w *snap.Writer) {
			tableDef(w, heapDef)
			w.Varint(0)
			w.Bool(true)
		}, table, "clustered but has no primary key"},
		{"clustered row count mismatch", func(w *snap.Writer) {
			tableDef(w, pkDef)
			w.Varint(3)
			w.Bool(true)
			w.Uvarint(64)
			w.Uvarint(1)
			leaf(w, 1)
		}, table, "row count 3 != clustered entries 1"},
		{"heap row count mismatch", func(w *snap.Writer) {
			tableDef(w, heapDef)
			w.Varint(2)
			w.Bool(false)
			emptyHeap(w)
		}, table, "row count 2 != live heap rows 0"},
		{"heap free list names a missing slot", func(w *snap.Writer) {
			tableDef(w, heapDef)
			w.Varint(0)
			w.Bool(false)
			w.Uvarint(8)
			w.Uvarint(0)
			w.Uvarint(1)
			w.Varint(9)
		}, table, "free rid 9 out of range"},
		{"index kind out of range", func(w *snap.Writer) {
			w.String("ix")
			w.String("t")
			w.Uvarint(uint64(schema.Clustered) + 1)
		}, index, "enum value 2 above 1"},
		{"index named otherwise", func(w *snap.Writer) {
			indexBody(w, schema.IndexDef{Name: "other", Table: "t", KeyColumns: []string{"a"}})
		}, index, `index key "ix" names definition "other"`},
		{"index on a missing table", func(w *snap.Writer) {
			indexBody(w, schema.IndexDef{Name: "ix", Table: "gone", KeyColumns: []string{"a"}})
		}, index, `references missing table "gone"`},
		{"index on a missing column", func(w *snap.Writer) {
			indexBody(w, schema.IndexDef{Name: "ix", Table: "t", KeyColumns: []string{"zz"}})
		}, index, `index "ix":`},
		{"duplicate statistics-version key", func(w *snap.Writer) {
			for i := 0; i < 7; i++ {
				w.Uvarint(0)
			}
			w.Uvarint(2)
			w.String("t.a")
			w.Varint(1)
			w.String("t.a")
			w.Varint(2)
		}, walk, "duplicate map key t.a"},
	}
	for _, tc := range cases {
		var w snap.Writer
		tc.build(&w)
		r, err := snap.Open(w.Seal())
		if err != nil {
			t.Fatal(err)
		}
		tc.decode(r)
		//lint:ignore errcompare every check wraps the one ErrCorrupt sentinel; only the text says which check refused the body
		if err := r.Err(); !errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want ErrCorrupt containing %q, got %v", tc.name, tc.want, err)
		}
	}
}
