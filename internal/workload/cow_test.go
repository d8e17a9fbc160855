package workload

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"autoindex/internal/btree"
	"autoindex/internal/engine"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/value"
)

// stampSiblings builds one archetype and stamps n sibling tenants from
// it, each with its own name, seed and clock.
func stampSiblings(t *testing.T, n int) (*Archetype, []*Tenant) {
	t.Helper()
	p := Profile{Name: "cowarch", Tier: engine.TierStandard, Seed: 424242, Scale: 0.25, UserIndexes: true}
	arch, err := NewArchetype(p, sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	sibs := make([]*Tenant, n)
	for i := range sibs {
		tn, err := NewTenantFromArchetype(arch, fmt.Sprintf("cow%02d", i), 1000+int64(i)*7919, sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		sibs[i] = tn
	}
	return arch, sibs
}

// TestCOWPhysicalSharing pins the aliasing contract of archetype
// stamping: every sibling's table definitions, base rows and column
// statistics are the SAME objects as the archetype's shared catalog —
// pointer identity, not equal copies. This is what makes per-tenant
// memory the tenant's tree nodes and deltas rather than its data.
func TestCOWPhysicalSharing(t *testing.T) {
	arch, sibs := stampSiblings(t, 3)
	for _, ts := range arch.Tables {
		canonical := arch.Shared.TableDef(ts.Name)
		if canonical == nil {
			t.Fatalf("archetype catalog missing table %s", ts.Name)
		}
		rows := arch.Shared.Rows(ts.Name)
		for i, tn := range sibs {
			if got := tn.DB.TableDefPtr(ts.Name); got != canonical {
				t.Errorf("sibling %d: table %s definition is a copy (%p), want shared %p", i, ts.Name, got, canonical)
			}
			if len(rows) > 0 && len(rows[0]) > 0 {
				if got := tn.DB.BaseRowPointer(ts.Name, 0); got != &rows[0][0] {
					t.Errorf("sibling %d: table %s base row 0 is a copy, want shared storage", i, ts.Name)
				}
			}
			for _, c := range ts.Columns {
				canon := arch.Shared.Stats(ts.Name, c.Name)
				if canon == nil {
					continue // column had no template statistics
				}
				if got := tn.DB.StatPtr(ts.Name, c.Name); got != canon {
					t.Errorf("sibling %d: stats %s.%s is a copy (%p), want shared %p", i, ts.Name, c.Name, got, canon)
				}
			}
		}
	}
}

// droppableColumn finds a (table, column) pair a tenant-local DDL can
// drop: not a primary-key column and not referenced by any of the
// archetype's user-created indexes.
func droppableColumn(t *testing.T, arch *Archetype) (string, string) {
	t.Helper()
	for _, ts := range arch.Tables {
		def := arch.Shared.TableDef(ts.Name)
	cols:
		for _, c := range def.Columns {
			for _, pk := range def.PrimaryKey {
				if pk == c.Name {
					continue cols
				}
			}
			for _, ix := range arch.Indexes {
				if !ix.AutoCreated && ix.Table == def.Name && ix.HasColumn(c.Name) {
					continue cols
				}
			}
			return ts.Name, c.Name
		}
	}
	t.Fatal("archetype has no droppable column")
	return "", ""
}

// TestCOWDropColumnForksOnlyThatTenant drops a column on one sibling and
// verifies the fork is private: the altering tenant gets its own table
// definition and row storage, while the shared catalog and both other
// siblings keep the original objects — and the original column.
func TestCOWDropColumnForksOnlyThatTenant(t *testing.T) {
	arch, sibs := stampSiblings(t, 3)
	table, column := droppableColumn(t, arch)
	canonical := arch.Shared.TableDef(table)
	canonRow := &arch.Shared.Rows(table)[0][0]

	if err := sibs[0].DB.DropColumn(table, column); err != nil {
		t.Fatalf("DropColumn(%s.%s): %v", table, column, err)
	}

	forked := sibs[0].DB.TableDefPtr(table)
	if forked == canonical {
		t.Fatalf("DDL on sibling 0 mutated the shared definition of %s in place", table)
	}
	if forked.ColumnIndex(column) >= 0 {
		t.Errorf("sibling 0 still sees dropped column %s.%s", table, column)
	}
	if sibs[0].DB.BaseRowPointer(table, 0) == canonRow {
		t.Errorf("sibling 0 rows still alias shared storage after the column was stripped")
	}

	// The catalog itself must be untouched...
	if arch.Shared.TableDef(table) != canonical {
		t.Fatalf("shared catalog definition pointer changed")
	}
	if canonical.ColumnIndex(column) < 0 {
		t.Fatalf("shared catalog lost column %s.%s to a sibling's DDL", table, column)
	}
	// ...and the fork invisible to the other siblings.
	for i, tn := range sibs[1:] {
		if got := tn.DB.TableDefPtr(table); got != canonical {
			t.Errorf("sibling %d: definition no longer aliases the catalog after sibling 0's DDL", i+1)
		}
		if got := tn.DB.TableDefPtr(table); got.ColumnIndex(column) < 0 {
			t.Errorf("sibling %d: lost column %s.%s to sibling 0's DDL", i+1, table, column)
		}
		if tn.DB.BaseRowPointer(table, 0) != canonRow {
			t.Errorf("sibling %d: rows no longer alias shared storage", i+1)
		}
	}
}

// TestCOWStatsRefreshForksOnlyThatTenant verifies both halves of the
// statistics copy-on-write contract. A refresh over unchanged data is a
// no-op — the tenant keeps aliasing the shared histograms, because the
// rebuild would be bit-identical anyway. Once the tenant's data actually
// diverges (local writes), a refresh forks that tenant's statistics
// pointers off the catalog; siblings and the catalog keep the originals.
func TestCOWStatsRefreshForksOnlyThatTenant(t *testing.T) {
	arch, sibs := stampSiblings(t, 3)
	type statCol struct{ table, column string }
	var shared []statCol
	for _, ts := range arch.Tables {
		for _, c := range ts.Columns {
			if arch.Shared.Stats(ts.Name, c.Name) != nil {
				shared = append(shared, statCol{ts.Name, c.Name})
			}
		}
	}
	if len(shared) == 0 {
		t.Fatal("archetype has no shared statistics")
	}

	// Refresh with no divergence: still shared.
	sibs[1].DB.RebuildAllStats()
	for _, sc := range shared {
		canon := arch.Shared.Stats(sc.table, sc.column)
		if got := sibs[1].DB.StatPtr(sc.table, sc.column); got != canon {
			t.Errorf("sibling 1: refresh over unchanged data forked stats %s.%s", sc.table, sc.column)
		}
	}

	// Diverge sibling 1 with local writes, then refresh: forked.
	st := sibs[1].Run(0, 200)
	if st.Writes == 0 {
		t.Fatal("replay produced no writes; cannot exercise the stats fork")
	}
	sibs[1].DB.RebuildAllStats()

	for _, sc := range shared {
		canon := arch.Shared.Stats(sc.table, sc.column)
		if arch.Shared.Stats(sc.table, sc.column) != canon {
			t.Fatalf("shared catalog stats pointer for %s.%s changed", sc.table, sc.column)
		}
		if got := sibs[1].DB.StatPtr(sc.table, sc.column); got == canon {
			t.Errorf("sibling 1: stats %s.%s still alias the catalog after a refresh", sc.table, sc.column)
		}
		for _, i := range []int{0, 2} {
			if got := sibs[i].DB.StatPtr(sc.table, sc.column); got != canon {
				t.Errorf("sibling %d: stats %s.%s forked by sibling 1's refresh", i, sc.table, sc.column)
			}
		}
	}
}

// project picks the named columns of row, then appends loc: the shape of
// an index entry's key (key columns) and payload (included columns).
func project(def *schema.Table, row value.Row, cols []string, loc value.Key) []value.Value {
	out := make([]value.Value, 0, len(cols)+len(loc))
	for _, c := range cols {
		out = append(out, row[def.ColumnIndex(c)])
	}
	return append(out, loc...)
}

// TestCOWStampedTreesMatchAFreshBuild: every stamped clustered and
// secondary tree is Dump-equal to one built by inserting the catalog's
// entries in stamp order — the clustered tree in row order, each index in
// the table's storage order — so Height, LeafCount and every snapshot
// byte are what a tree built at stamp time had.
func TestCOWStampedTreesMatchAFreshBuild(t *testing.T) {
	arch, sibs := stampSiblings(t, 3)
	indexes := 0
	for _, ts := range arch.Tables {
		def := arch.Shared.TableDef(ts.Name)
		rows := arch.Shared.Rows(ts.Name)
		type stored struct {
			row value.Row
			loc value.Key
		}
		var order []stored
		var clustered *btree.Tree
		if len(def.PrimaryKey) > 0 {
			clustered = btree.New(btree.DefaultOrder)
			for _, r := range rows {
				clustered.Insert(project(def, r, def.PrimaryKey, nil), r)
			}
			clustered.Ascend(func(e btree.Entry) bool {
				order = append(order, stored{e.Payload, e.Key})
				return true
			})
		} else {
			for i, r := range rows {
				order = append(order, stored{r, value.Key{value.NewInt(int64(i))}})
			}
		}
		for i, tn := range sibs {
			if clustered != nil && !reflect.DeepEqual(tn.DB.Tree(ts.Name, "").Dump(), clustered.Dump()) {
				t.Errorf("sibling %d: clustered tree of %s differs from a fresh build", i, ts.Name)
			}
		}
		for _, ix := range arch.Indexes {
			if !strings.EqualFold(ix.Table, ts.Name) {
				continue
			}
			indexes++
			want := btree.New(btree.DefaultOrder)
			for _, s := range order {
				want.Insert(project(def, s.row, ix.KeyColumns, s.loc), project(def, s.row, ix.IncludedColumns, s.loc))
			}
			for i, tn := range sibs {
				if !reflect.DeepEqual(tn.DB.Tree("", ix.Name).Dump(), want.Dump()) {
					t.Errorf("sibling %d: index %s differs from a fresh build", i, ix.Name)
				}
			}
		}
	}
	if indexes == 0 {
		t.Fatal("archetype has no user indexes")
	}
}

// rehydrate hibernates tn and brings it back in place.
func rehydrate(t *testing.T, tn *Tenant) {
	t.Helper()
	blob := sealedTenant(tn)
	tn.Release()
	r, err := snap.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.DecodeFrom(r); err != nil {
		t.Fatal(err)
	}
}

// TestCOWIndexEntriesSharedNodesPrivate: siblings share every tree entry —
// key and payload backing arrays are the same by pointer — while every
// node's keys and payloads arrays are each sibling's own. Two of the
// siblings have been hibernated and rehydrated: a snapshot writes their
// entries as catalog references and their leaves as catalog leaves, so
// rehydration must restore the shared entries and copy the arrays; had
// it aliased the catalog's arrays, the two would share them.
func TestCOWIndexEntriesSharedNodesPrivate(t *testing.T) {
	arch, sibs := stampSiblings(t, 3)
	rehydrate(t, sibs[1])
	rehydrate(t, sibs[2])
	var trees [][2]string // (table, index)
	for _, ts := range arch.Tables {
		trees = append(trees, [2]string{ts.Name, ""})
	}
	for _, ix := range arch.Indexes {
		trees = append(trees, [2]string{"", ix.Name})
	}
	for _, tr := range trees {
		if sibs[0].DB.Tree(tr[0], tr[1]) == nil {
			continue // a heap table
		}
		for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 2}} {
			other, tn := pair[0], sibs[pair[1]]
			base := sibs[other].DB.Tree(tr[0], tr[1]).Dump()
			for n, node := range tn.DB.Tree(tr[0], tr[1]).Dump() {
				b := base[n]
				if len(node.Keys) > 0 && &node.Keys[0] == &b.Keys[0] {
					t.Fatalf("%s: tree %v node %d shares its keys array with sibling %d", tn.DB.Name(), tr, n, other)
				}
				if len(node.Payloads) > 0 && &node.Payloads[0] == &b.Payloads[0] {
					t.Fatalf("%s: tree %v node %d shares its payloads array with sibling %d", tn.DB.Name(), tr, n, other)
				}
				for j, k := range node.Keys {
					if &k[0] != &b.Keys[j][0] || (node.Leaf && &node.Payloads[j][0] != &b.Payloads[j][0]) {
						t.Fatalf("%s: tree %v node %d entry %d is a copy, want shared", tn.DB.Name(), tr, n, j)
					}
				}
			}
		}
	}
}

// cowState renders a tenant's stored state — each table's definition,
// rows in storage order and clustered tree, each index's definition and
// tree — as text, a copy no later write can reach.
func cowState(t *testing.T, tn *Tenant) string {
	t.Helper()
	var b strings.Builder
	for _, ts := range tn.Tables {
		res, err := tn.DB.Exec("SELECT * FROM " + ts.Name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&b, *tn.DB.TableDefPtr(ts.Name), res.Rows)
		if tr := tn.DB.Tree(ts.Name, ""); tr != nil {
			fmt.Fprintln(&b, tr.Dump())
		}
	}
	for _, def := range tn.DB.IndexDefs() {
		fmt.Fprintln(&b, def, tn.DB.Tree("", def.Name).Dump())
	}
	return b.String()
}

// insertCopies inserts into every table a copy of its first catalog row
// under a new id.
func insertCopies(tn *Tenant, arch *Archetype, id int64) error {
	for _, ts := range arch.Tables {
		def := arch.Shared.TableDef(ts.Name)
		cols, vals := make([]string, len(def.Columns)), make([]string, len(def.Columns))
		for i, c := range def.Columns {
			cols[i], vals[i] = c.Name, arch.Shared.Rows(ts.Name)[0][i].String()
			if c.Name == "id" {
				vals[i] = fmt.Sprint(id)
			}
		}
		if _, err := tn.DB.Exec(fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)", ts.Name, strings.Join(cols, ", "), strings.Join(vals, ", "))); err != nil {
			return err
		}
	}
	return nil
}

// twoValues returns a non-NULL value of column col of table and a
// different one.
func twoValues(t *testing.T, arch *Archetype, table, col string) (from, to value.Value) {
	t.Helper()
	ord := arch.Shared.TableDef(table).ColumnIndex(col)
	for _, r := range arch.Shared.Rows(table) {
		switch v := r[ord]; {
		case v.IsNull():
		case from.IsNull():
			from = v
		case value.Compare(v, from) != 0:
			return from, v
		}
	}
	t.Fatalf("column %s.%s has fewer than two distinct values", table, col)
	return
}

// TestCOWWritesStayPrivate runs each kind of tenant-local change on one
// of three siblings: an INSERT and a DELETE into every table, an UPDATE
// of the key column and of an included column through each index,
// DropColumn, RenameColumn of an indexed column, and CREATE and DROP
// INDEX. After each, the other two siblings and the catalog (read
// through a fresh stamp) are Dump-identical to before; and a probe
// INSERT into every table of a sibling then gives the same trees as on a
// control sibling probed before the change, so no index metadata (its
// definition and column ordinals) was shared either. The battery runs
// twice: on a fresh stamp, and on one hibernated and rehydrated first,
// whose leaves and entries come back aliased to the catalog.
func TestCOWWritesStayPrivate(t *testing.T) {
	arch, _ := stampSiblings(t, 0)
	exec := func(sqls ...string) func(*Tenant) error {
		return func(tn *Tenant) error {
			for _, sql := range sqls {
				res, err := tn.DB.Exec(sql)
				if err != nil {
					return err
				}
				if res.RowsAffected == 0 {
					return fmt.Errorf("%s changed no row", sql)
				}
			}
			return nil
		}
	}
	type change struct {
		name  string
		apply func(*Tenant) error
	}
	changes := []change{{"insert", func(tn *Tenant) error { return insertCopies(tn, arch, 1<<45) }}}
	var deletes []string
	for _, ts := range arch.Tables {
		first := arch.Shared.Rows(ts.Name)[0][0].String()
		deletes = append(deletes, fmt.Sprintf("DELETE FROM %s WHERE id = %s", ts.Name, first))
	}
	changes = append(changes, change{"delete", exec(deletes...)})
	for _, ix := range arch.Indexes {
		key := ix.KeyColumns[0]
		from, to := twoValues(t, arch, ix.Table, key)
		changes = append(changes, change{"update key via " + ix.Name,
			exec(fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %s", ix.Table, key, to, key, from))})
		for _, incl := range ix.IncludedColumns {
			if incl == "id" {
				continue
			}
			_, other := twoValues(t, arch, ix.Table, incl)
			changes = append(changes, change{"update include via " + ix.Name,
				exec(fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s = %s", ix.Table, incl, other, key, from))})
			break
		}
	}
	table, column := droppableColumn(t, arch)
	renamed := arch.Indexes[0]
	changes = append(changes,
		change{"drop column", func(tn *Tenant) error { return tn.DB.DropColumn(table, column) }},
		change{"rename column", func(tn *Tenant) error {
			return tn.DB.RenameColumn(renamed.Table, renamed.KeyColumns[0], "renamed_col")
		}},
		change{"create index", func(tn *Tenant) error {
			return tn.DB.CreateIndex(schema.IndexDef{Name: "ix_cow", Table: table, KeyColumns: []string{column}}, engine.IndexBuildOptions{})
		}},
		change{"drop index", func(tn *Tenant) error { return tn.DB.DropIndex(renamed.Name, engine.DropIndexOptions{}) }},
	)
	includes := 0
	for _, c := range changes {
		if strings.HasPrefix(c.name, "update include") {
			includes++
		}
	}
	if includes == 0 {
		t.Fatal("no user index has an included column to update")
	}

	stamp := func(name string) *Tenant {
		tn, err := NewTenantFromArchetype(arch, name, 4242, sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}
	for _, rehydrated := range []bool{false, true} {
		for _, c := range changes {
			sibs := []*Tenant{stamp("cow00"), stamp("cow01"), stamp("cow02")}
			control := stamp("cowctl")
			base := cowState(t, sibs[1])
			if rehydrated {
				c.name += " after a rehydrate"
				if rehydrate(t, sibs[0]); cowState(t, sibs[0]) != base {
					t.Fatalf("%s: the rehydrated sibling differs from its stamp", c.name)
				}
			}
			if err := insertCopies(control, arch, 1<<46); err != nil {
				t.Fatal(err)
			}
			probed := cowState(t, control)
			if err := c.apply(sibs[0]); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if cowState(t, sibs[0]) == base {
				t.Fatalf("%s changed nothing on the sibling it ran on", c.name)
			}
			if cowState(t, sibs[1]) != base || cowState(t, sibs[2]) != base {
				t.Errorf("%s on sibling 0 changed another sibling", c.name)
			}
			if cowState(t, stamp("cowfresh")) != base {
				t.Errorf("%s on sibling 0 changed the catalog", c.name)
			}
			if err := insertCopies(sibs[2], arch, 1<<46); err != nil {
				t.Fatal(err)
			}
			if cowState(t, sibs[2]) != probed {
				t.Errorf("after %s on sibling 0, a write to sibling 2 differs from the same write before it", c.name)
			}
		}
	}
}

// TestCOWConcurrentStampsAndWrites stamps siblings from one catalog on
// several goroutines at once and replays writes on each: under the race
// detector, this shows the catalog is only read and a sibling writes only
// what is its own.
func TestCOWConcurrentStampsAndWrites(t *testing.T) {
	arch, _ := stampSiblings(t, 0)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn, err := NewTenantFromArchetype(arch, fmt.Sprintf("race%02d", i), int64(i), sim.NewClock())
			if err == nil {
				if st := tn.Run(0, 300); st.Errors > 0 || st.Writes == 0 {
					err = fmt.Errorf("replay: %+v", st)
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("sibling %d: %v", i, err)
		}
	}
}
