package engine

import (
	"autoindex/internal/btree"
	"autoindex/internal/schema"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// Clone creates an independent copy of the database seeded from a snapshot
// of its current state — the substrate for B-instances (§7.1). The clone
// gets its own Query Store, DMVs, lock manager and noise stream (it is a
// different physical server), but identical data, schema, indexes and
// statistics.
func (d *Database) Clone(name string) *Database {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cfg := d.cfg
	cfg.Name = name
	cfg.Seed = d.cfg.Seed + int64(len(name))*7919
	c := New(cfg, d.clock)
	for k, t := range d.tables {
		nt := &tableData{def: cloneTableDef(t.def), rowCount: t.rowCount}
		if t.clustered != nil {
			nt.clustered = btree.New(btree.DefaultOrder)
			t.clustered.Ascend(func(e btree.Entry) bool {
				nt.clustered.Insert(cloneKey(e.Key), e.Payload.Clone())
				return true
			})
		} else {
			nt.heap = storage.NewHeap(t.def.RowWidth())
			t.heap.Scan(func(_ storage.RID, r value.Row) bool {
				nt.heap.Insert(r.Clone())
				return true
			})
		}
		c.tables[k] = nt
	}
	for _, ix := range d.indexes {
		nix := &indexData{
			def:       ix.def.Clone(),
			tree:      btree.New(btree.DefaultOrder),
			keyOrds:   append([]int(nil), ix.keyOrds...),
			inclOrds:  append([]int(nil), ix.inclOrds...),
			createdAt: ix.createdAt,
			sizeBytes: ix.sizeBytes,
		}
		ix.tree.Ascend(func(e btree.Entry) bool {
			nix.tree.Insert(cloneKey(e.Key), e.Payload.Clone())
			return true
		})
		c.putIndex(nix)
	}
	for k, st := range d.colStat {
		c.colStat[k] = st // stats objects are treated as immutable once built
	}
	for k, src := range d.bulkSources {
		c.bulkSources[k] = src
	}
	return c
}

func cloneKey(k value.Key) value.Key {
	out := make(value.Key, len(k))
	copy(out, k)
	return out
}

func cloneTableDef(t *schema.Table) *schema.Table {
	out := *t
	out.Columns = append([]schema.Column(nil), t.Columns...)
	out.PrimaryKey = append([]string(nil), t.PrimaryKey...)
	return &out
}
