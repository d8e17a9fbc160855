package engine

import (
	"slices"
	"strings"

	"autoindex/internal/btree"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/stats"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// Park quiesces a resident database at a fleet hour barrier. The
// plan-cost cache is reset unconditionally — whether or not the tenant is
// then hibernated — so cache contents at every barrier are identical with
// and without hibernation pressure; see costcache.Reset for the
// determinism rationale. Lock leases self-expire well inside an hour and
// need no treatment.
func (d *Database) Park() {
	d.costCache.Reset()
}

// Row tags in snapshots: a stored row, tree key or index payload is
// inline, a position in a catalog list, or absent (heap tombstone).
const (
	rowInline = iota
	rowShared
	rowNil
)

// Node tags in snapshots: interior, leaf, or catalog leaf by Dump ordinal.
const (
	nodeInterior = iota
	nodeLeaf
	nodeShared
)

// walk is the database's snapshot layout, in deterministic order: the
// RNG and noise stream positions, the scalar counters, then each map in
// ascending key order. Objects, rows, leaves and entries physically
// shared with sc (the tenant's archetype catalog) are written as
// references, the compactness and re-aliasing half of copy-on-write
// hibernation; sc may be nil, forcing everything inline. Runtime wiring
// — clock, config, metrics registry, fault injector, stats hook, bulk
// sources, lock manager, the Query Store shell — stays resident.
func (st *dbState) walk(c snap.Codec, rngPos, noisePos *uint64, sc *SharedCatalog) {
	if sc == nil {
		sc = NewSharedCatalog() // nothing to reference
	}
	c.Uvarint(rngPos)
	c.Uvarint(noisePos)
	c.Varint(&st.dataVersion)
	c.Varint(&st.execCount)
	c.Varint(&st.failovers)
	c.Varint(&st.schemaChanges)
	c.Varint(&st.convoyBlocked)
	snap.Map(c, &st.statsVersion, func(c snap.Codec, k *string, v *int64) {
		c.String(k)
		c.Varint(v)
	})
	snap.Map(c, &st.tables, func(c snap.Codec, k *string, tp **tableData) {
		c.String(k)
		if c.Decoding() {
			*tp = decodeTable(c.Reader(), sc, *k)
		} else {
			encodeTable(c.Writer(), *tp, sc, *k)
		}
	})
	snap.Map(c, &st.indexes, func(c snap.Codec, k *string, ixp **indexData) {
		c.String(k)
		walkIndex(c, snap.Ptr(c, ixp), *k, st.tables, sc)
	})
	snap.Map(c, &st.colStat, func(c snap.Codec, k *string, sp **stats.ColumnStats) {
		c.String(k)
		shared := sc.stats[*k] == *sp // the encoder's answer; decoding reads the flag over it
		c.Bool(&shared)
		switch {
		case !shared:
			snap.Ptr(c, sp).Snap(c)
		case c.Decoding():
			if *sp = sc.stats[*k]; *sp == nil {
				c.Reader().Failf("statistics %q reference a shared histogram outside its archetype", *k)
			}
		}
	})
	snap.Map(c, &st.planTxt, func(c snap.Codec, h *uint64, txt *string) {
		c.Uvarint(h)
		c.String(txt)
	})
}

// EncodeTo serializes the database's full mutable state; see
// dbState.walk for the layout and what sc shares.
func (d *Database) EncodeTo(w *snap.Writer, sc *SharedCatalog) {
	d.mu.RLock()
	rngPos, noisePos := d.rng.Pos(), d.noise.Pos()
	d.dbState.walk(snap.Encoder(w), &rngPos, &noisePos, sc)
	d.mu.RUnlock()

	d.qs.EncodeTo(w)
	d.miDMV.EncodeTo(w)
	d.usage.EncodeTo(w)
}

// DecodeFrom rehydrates the database from an EncodeTo snapshot, restoring
// in place: the Database object, its Query Store, DMV stores, lock
// manager and cost cache shells all stay resident, so control-plane and
// chaos-harness pointers into them remain valid. The whole snapshot —
// the stores' parts included — is decoded into staged state and
// validated before anything is swapped in; on error the database and its
// stores are left unchanged.
func (d *Database) DecodeFrom(r *snap.Reader, sc *SharedCatalog) error {
	var st dbState
	var rngPos, noisePos uint64
	st.walk(snap.Decoder(r), &rngPos, &noisePos, sc)
	commitQS := d.qs.DecodeFrom(r)
	commitMI := d.miDMV.DecodeFrom(r)
	commitUsage := d.usage.DecodeFrom(r)
	if err := r.Err(); err != nil {
		return err
	}

	d.mu.Lock()
	d.rng = sim.NewRNGAt(sim.DeriveSeed(d.cfg.Seed, "engine/"+d.cfg.Name), rngPos)
	d.noise = sim.NewNoiseAt(d.rng, d.cfg.NoiseCV, noisePos)
	d.dbState = st
	d.mu.Unlock()
	commitQS()
	commitMI()
	commitUsage()
	return nil
}

// Release drops the heavy per-tenant state after a snapshot has been
// taken, keeping the Database shell (config, clock, stores, hooks, lock
// manager, bulk sources) resident for rehydration in place. The RNG and
// noise streams are also dropped — each holds a ~5KB generator — and are
// rebuilt from (seed, position) on decode.
func (d *Database) Release() {
	d.mu.Lock()
	d.tables = nil
	d.indexes = nil
	d.colStat = nil
	d.statsVersion = nil
	d.planTxt = nil
	d.rng = nil
	d.noise = nil
	d.mu.Unlock()
	d.qs.Release()
	d.miDMV.Release()
	d.usage.Release()
	d.costCache.Reset()
}

func walkTableDef(c snap.Codec, def *schema.Table) {
	c.String(&def.Name)
	snap.Slice(c, &def.Columns, func(c snap.Codec, col *schema.Column) {
		c.String(&col.Name)
		snap.Enum(c, &col.Kind, value.Time)
		c.Bool(&col.Nullable)
		c.Int(&col.AvgWidth)
	})
	c.Strings(&def.PrimaryKey)
}

func walkIndexDef(c snap.Codec, def *schema.IndexDef) {
	c.String(&def.Name)
	c.String(&def.Table)
	snap.Enum(c, &def.Kind, schema.Clustered)
	c.Strings(&def.KeyColumns)
	c.Strings(&def.IncludedColumns)
	c.Bool(&def.Unique)
	c.Bool(&def.Hypothetical)
	c.Bool(&def.AutoCreated)
	c.Bool(&def.Hinted)
	c.Bool(&def.EnforcesConstraint)
}

// walkIndex is one secondary index's snapshot body. Key/include ordinals
// are not written: decoding recomputes them from the definitions, after
// checking the definition against the (already decoded) tables. Shared
// entries resolve against the catalog's index of the same name.
func walkIndex(c snap.Codec, ix *indexData, k string, tables map[string]*tableData, sc *SharedCatalog) {
	walkIndexDef(c, &ix.def)
	c.Time(&ix.createdAt)
	c.Varint(&ix.sizeBytes)
	if !c.Decoding() {
		encodeTree(c.Writer(), ix.tree, sc, sc.indexRefs[k])
		return
	}
	r := c.Reader()
	if ix.tree = decodeTree(r, sc, sc.indexRefs[k]); ix.tree == nil {
		return
	}
	if !strings.EqualFold(ix.def.Name, k) {
		r.Failf("index key %q names definition %q", k, ix.def.Name)
	}
	t, ok := tables[strings.ToLower(ix.def.Table)]
	if !ok {
		r.Failf("index %q references missing table %q", k, ix.def.Table)
		return
	}
	if err := ix.def.Validate(t.def); err != nil {
		r.Failf("index %q: %v", k, err)
	}
	ix.resolve(t.def)
	t.addIndex(ix)
}

// encodeTable writes one table: its definition (or a flag that it is the
// archetype's), the row count, and the clustered tree or the heap.
func encodeTable(w *snap.Writer, t *tableData, sc *SharedCatalog, k string) {
	sharedDef := sc.def(k) == t.def
	w.Bool(sharedDef)
	if !sharedDef {
		walkTableDef(snap.Encoder(w), t.def)
	}
	w.Varint(t.rowCount)
	w.Bool(t.clustered != nil)
	st := sc.tableRefs[k]
	if t.clustered != nil {
		encodeTree(w, t.clustered, sc, st)
		return
	}
	rows, free, rowWidth := t.heap.Dump()
	w.Uvarint(uint64(rowWidth))
	w.Uvarint(uint64(len(rows)))
	for _, row := range rows {
		encodeRow(w, row, sc, st.payloads)
	}
	w.Uvarint(uint64(len(free)))
	for _, rid := range free {
		w.Varint(int64(rid))
	}
}

// decodeTable reads what encodeTable wrote and validates it — the
// definition, its name against the key, the storage structure, and the
// row count against the storage. It returns nil once r has failed.
func decodeTable(r *snap.Reader, sc *SharedCatalog, k string) *tableData {
	t := &tableData{}
	if r.Bool() {
		if t.def = sc.def(k); t.def == nil {
			r.Failf("table %q references a shared definition outside its archetype", k)
			return nil
		}
	} else {
		t.def = &schema.Table{}
		walkTableDef(snap.Decoder(r), t.def)
		if err := t.def.Validate(); err != nil {
			r.Failf("table %q: %v", k, err)
		}
	}
	if !strings.EqualFold(t.def.Name, k) {
		r.Failf("table key %q names definition %q", k, t.def.Name)
	}
	t.rowCount = r.Varint()
	st := sc.tableRefs[k]
	if r.Bool() {
		if len(t.def.PrimaryKey) == 0 {
			r.Failf("table %q is clustered but has no primary key", k)
		}
		if t.clustered = decodeTree(r, sc, st); t.clustered == nil {
			return nil
		}
		if int64(t.clustered.Len()) != t.rowCount {
			r.Failf("table %q row count %d != clustered entries %d", k, t.rowCount, t.clustered.Len())
		}
		return t
	}
	rowWidth := r.Uint()
	rows := make([]value.Row, r.Len())
	for j := range rows {
		rows[j] = decodeRow(r, sc, st.payloads)
	}
	free := make([]storage.RID, r.Len())
	for j := range free {
		free[j] = storage.RID(r.Varint())
	}
	if r.Err() != nil {
		return nil
	}
	var err error
	if t.heap, err = storage.Restore(rows, free, rowWidth); err != nil {
		r.Failf("table %q: %v", k, err)
		return nil
	}
	if t.heap.Len() != t.rowCount {
		r.Failf("table %q row count %d != live heap rows %d", k, t.rowCount, t.heap.Len())
	}
	return t
}

// encodeRow writes one stored row, tree key or index payload: as its
// position in list, one of sc's lists, when the slice is physically
// there, which copy-on-write sharing makes the common case.
func encodeRow(w *snap.Writer, row value.Row, sc *SharedCatalog, list int) {
	if row == nil {
		w.Uvarint(rowNil)
		return
	}
	if idx, ok := sc.refIn(list, row); ok {
		w.Uvarint(rowShared)
		w.Uvarint(uint64(idx))
		return
	}
	w.Uvarint(rowInline)
	w.Row(row)
}

func decodeRow(r *snap.Reader, sc *SharedCatalog, list int) value.Row {
	switch tag := r.Uvarint(); tag {
	case rowNil:
	case rowShared:
		idx, rows := r.Uvarint(), sc.lists[list]
		if idx < uint64(len(rows)) {
			return rows[idx]
		}
		r.Failf("shared row %d/%d", idx, len(rows))
	case rowInline:
		return r.Row()
	default:
		r.Failf("unknown row tag %d", tag)
	}
	return nil
}

// encodeTree writes a B+ tree's exact node structure (deletes never
// rebalance, so shape is history-dependent and feeds optimizer costs),
// what it shares with st, the catalog's tree, written as references.
func encodeTree(w *snap.Writer, t *btree.Tree, sc *SharedCatalog, st sharedStore) {
	nodes := t.Dump()
	w.Uvarint(uint64(t.Order()))
	w.Uvarint(uint64(len(nodes)))
	for _, n := range nodes {
		if o, ok := sc.leafOf(st, n); ok {
			w.Uvarint(nodeShared)
			w.Uvarint(uint64(o))
			continue
		}
		if n.Leaf {
			w.Uvarint(nodeLeaf)
		} else {
			w.Uvarint(nodeInterior)
		}
		w.Uvarint(uint64(len(n.Keys)))
		for _, k := range n.Keys {
			encodeRow(w, value.Row(k), sc, st.keys)
		}
		if n.Leaf {
			for _, p := range n.Payloads {
				encodeRow(w, p, sc, st.payloads)
			}
		} else {
			w.Uvarint(uint64(len(n.Children)))
			for _, c := range n.Children {
				w.Uvarint(uint64(c))
			}
		}
	}
}

// decodeTree reads what encodeTree wrote, rebuilds the tree and checks
// its invariants. It returns nil once r has failed.
func decodeTree(r *snap.Reader, sc *SharedCatalog, st sharedStore) *btree.Tree {
	order := r.Uint()
	nodes := make([]btree.DumpedNode, r.Len())
	for i := range nodes {
		n := &nodes[i]
		switch tag := r.Uvarint(); tag {
		case nodeShared: // copies of the catalog leaf's arrays: node arrays stay the tenant's own
			if o := r.Uvarint(); o < uint64(len(st.nodes)) && st.nodes[o].Leaf {
				n.Leaf, n.Keys, n.Payloads = true, slices.Clone(st.nodes[o].Keys), slices.Clone(st.nodes[o].Payloads)
			} else {
				r.Failf("shared leaf %d is not a leaf of the catalog's %d nodes", o, len(st.nodes))
			}
			continue
		case nodeLeaf, nodeInterior:
			n.Leaf = tag == nodeLeaf
		default:
			r.Failf("unknown node tag %d", tag)
			continue
		}
		n.Keys = make([]value.Key, r.Len())
		for j := range n.Keys {
			n.Keys[j] = value.Key(decodeRow(r, sc, st.keys))
		}
		if n.Leaf {
			n.Payloads = make([]value.Row, len(n.Keys))
			for j := range n.Payloads {
				n.Payloads[j] = decodeRow(r, sc, st.payloads)
			}
			continue
		}
		n.Children = make([]int, r.Len())
		for j := range n.Children {
			c := r.Uvarint()
			if c >= uint64(len(nodes)) {
				r.Failf("tree child index %d out of range", c)
			}
			n.Children[j] = int(c)
		}
	}
	if r.Err() != nil {
		return nil
	}
	t, err := btree.Load(order, nodes)
	if err == nil {
		err = t.CheckInvariants()
	}
	if err != nil {
		r.Failf("%v", err)
		return nil
	}
	return t
}
