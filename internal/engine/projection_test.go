package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// checkIndexProjections reports the first index of d, by name, whose
// entries are not exactly the projections of its table's live rows,
// column for column: the key columns then the locator as the key, the
// included columns then the locator as the payload. It also counts the
// indexes it checked on heap and on clustered tables.
func checkIndexProjections(d *Database) (heaps, clustered int, err error) {
	names := make([]string, 0, len(d.indexes))
	for name := range d.indexes {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		ix := d.indexes[name]
		t := d.tables[ix.def.Table]
		var want, got []btree.Entry
		project := func(row value.Row, loc value.Key) {
			var e btree.Entry
			for _, c := range ix.def.KeyColumns {
				e.Key = append(e.Key, row[t.def.ColumnIndex(c)])
			}
			for _, c := range ix.def.IncludedColumns {
				e.Payload = append(e.Payload, row[t.def.ColumnIndex(c)])
			}
			e.Key, e.Payload = append(e.Key, loc...), append(e.Payload, loc...)
			want = append(want, e)
		}
		if t.clustered != nil {
			clustered++
			t.clustered.Ascend(func(e btree.Entry) bool { project(e.Payload, e.Key); return true })
		} else {
			heaps++
			t.heap.Scan(func(rid storage.RID, row value.Row) bool {
				project(row, value.Key{value.NewInt(int64(rid))})
				return true
			})
		}
		slices.SortFunc(want, func(a, b btree.Entry) int { return value.CompareKeys(a.Key, b.Key) })
		ix.tree.Ascend(func(e btree.Entry) bool { got = append(got, e); return true })
		if len(got) != len(want) {
			return heaps, clustered, fmt.Errorf("index %s holds %d entries for %d live rows", name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i].Key, want[i].Key) || !slices.Equal(got[i].Payload, want[i].Payload) {
				return heaps, clustered, fmt.Errorf("index %s entry %d is %v → %v, want %v → %v",
					name, i, got[i].Key, got[i].Payload, want[i].Key, want[i].Payload)
			}
		}
	}
	return heaps, clustered, nil
}

// A database stamped from a catalog takes rounds of random writes through
// every table and index. After each round, and again after it is
// hibernated and rehydrated, every index holds exactly the projections of
// its table's live rows, on a heap and a clustered table alike. A
// snapshot writes most leaves and entries as references into the
// catalog, so one that resolved to the wrong catalog leaf or entry shows
// here as an entry no live row projects to.
func TestIndexesProjectLiveRowsAfterRehydrate(t *testing.T) {
	cols := []schema.Column{{Name: "id", Kind: value.Int}, {Name: "b", Kind: value.String, Nullable: true}, {Name: "c", Kind: value.Float, Nullable: true}}
	sc := NewSharedCatalog()
	for _, def := range []*schema.Table{{Name: "h", Columns: cols}, {Name: "k", Columns: cols, PrimaryKey: []string{"id"}}} {
		var rows []value.Row
		for i := 0; i < 3000; i++ {
			rows = append(rows, value.Row{value.NewInt(int64(i)), value.NewString(fmt.Sprintf("v%d", i%500)), value.NewFloat(float64(i%400) + 0.5)})
		}
		if err := sc.AddTable(def, rows); err != nil {
			t.Fatal(err)
		}
		for _, ix := range []schema.IndexDef{
			{Name: "ix_" + def.Name + "_b", Table: def.Name, KeyColumns: []string{"b"}, IncludedColumns: []string{"c"}},
			{Name: "ix_" + def.Name + "_c", Table: def.Name, KeyColumns: []string{"c", "b"}},
		} {
			if err := sc.AddIndex(ix); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := New(DefaultConfig("proj", TierStandard, 7), sim.NewClock())
	d.Stamp(sc, time.Time{})
	rng := rand.New(rand.NewSource(34))
	next := int64(3000)
	// Round 0 rehydrates the stamp itself; later rounds write a few rows
	// each, so leaves shared whole, leaves mixing shared and private
	// entries, and private leaves all occur.
	for round := 0; round < 5; round++ {
		for i := 0; i < 20*round; i++ {
			table := []string{"h", "k"}[rng.Intn(2)]
			b, c := fmt.Sprintf("'v%d'", rng.Intn(520)), fmt.Sprintf("%d.5", rng.Intn(420))
			switch rng.Intn(4) {
			case 0:
				next++
				mustExec(t, d, sprintf("INSERT INTO %s (id, b, c) VALUES (%d, %s, %s)", table, next, b, c))
			case 1:
				mustExec(t, d, sprintf("UPDATE %s SET b = %s WHERE c = %s", table, b, c))
			case 2:
				mustExec(t, d, sprintf("UPDATE %s SET c = %s WHERE b = %s", table, c, b))
			default:
				mustExec(t, d, sprintf("DELETE FROM %s WHERE id = %d", table, rng.Int63n(next)))
			}
		}
		check := func(phase string) {
			t.Helper()
			heaps, clustered, err := checkIndexProjections(d)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, phase, err)
			}
			if heaps != 2 || clustered != 2 {
				t.Fatalf("checked %d heap and %d clustered indexes, want 2 of each", heaps, clustered)
			}
		}
		check("written")
		var w snap.Writer
		d.EncodeTo(&w, sc)
		d.Release()
		r, err := snap.Open(w.Seal())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.DecodeFrom(r, sc); err != nil {
			t.Fatal(err)
		}
		check("rehydrated")
	}
}
