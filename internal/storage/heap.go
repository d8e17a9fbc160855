// Package storage provides the row stores underneath tables: a heap (row
// id addressed) used when a table has no clustered index, plus page
// accounting helpers shared with B+ tree storage. The executor charges
// logical reads in pages, so both stores expose page counts derived from
// row widths and the engine's page size.
package storage

import (
	"fmt"
	"slices"

	"autoindex/internal/value"
)

// PageSize is the accounting page size in bytes (SQL Server uses 8KB).
const PageSize = 8192

// RowsPerPage returns how many rows of the given width fit a page (>= 1).
func RowsPerPage(rowWidth int) int {
	if rowWidth <= 0 {
		rowWidth = 8
	}
	n := PageSize / rowWidth
	if n < 1 {
		n = 1
	}
	return n
}

// PagesFor returns the number of pages needed for rows of the given width.
func PagesFor(rowCount int64, rowWidth int) int64 {
	per := int64(RowsPerPage(rowWidth))
	pages := (rowCount + per - 1) / per
	if pages < 1 {
		pages = 1
	}
	return pages
}

// RID identifies a row in a heap.
type RID int64

// Heap stores rows addressed by RID. Deleted slots are tombstoned and
// reused, approximating a real heap's page-slot behaviour.
type Heap struct {
	rows     []value.Row
	free     []RID
	live     int64
	rowWidth int
}

// NewHeap returns an empty heap for rows of the given average width.
func NewHeap(rowWidth int) *Heap {
	return &Heap{rowWidth: rowWidth}
}

// Insert stores row and returns its RID.
func (h *Heap) Insert(row value.Row) RID {
	h.live++
	if n := len(h.free); n > 0 {
		rid := h.free[n-1]
		h.free = h.free[:n-1]
		h.rows[rid] = row
		return rid
	}
	h.rows = append(h.rows, row)
	return RID(len(h.rows) - 1)
}

// Get returns the row at rid.
func (h *Heap) Get(rid RID) (value.Row, bool) {
	if rid < 0 || int(rid) >= len(h.rows) || h.rows[rid] == nil {
		return nil, false
	}
	return h.rows[rid], true
}

// Update replaces the row at rid.
func (h *Heap) Update(rid RID, row value.Row) error {
	if _, ok := h.Get(rid); !ok {
		return fmt.Errorf("storage: update of missing rid %d", rid)
	}
	h.rows[rid] = row
	return nil
}

// Delete tombstones the row at rid.
func (h *Heap) Delete(rid RID) error {
	if _, ok := h.Get(rid); !ok {
		return fmt.Errorf("storage: delete of missing rid %d", rid)
	}
	h.rows[rid] = nil
	h.free = append(h.free, rid)
	h.live--
	return nil
}

// Len returns the number of live rows.
func (h *Heap) Len() int64 { return h.live }

// Pages returns the heap's page count, counting tombstoned slots too (a
// heap does not shrink until rebuilt).
func (h *Heap) Pages() int64 {
	return PagesFor(int64(len(h.rows)), h.rowWidth)
}

// Scan calls fn for every live row in physical order, stopping early when
// fn returns false.
func (h *Heap) Scan(fn func(RID, value.Row) bool) {
	for i, r := range h.rows {
		if r == nil {
			continue
		}
		if !fn(RID(i), r) {
			return
		}
	}
}

// Cursor is Scan in pull form: the executor's scan source takes one live
// row per Next, so a consumer that stops early never visits the rest.
// Scan keeps its own loop: a whole-heap walk through Next measured 16x
// slower than the range loop with an inlined callback.
type Cursor struct {
	h *Heap
	i int
}

// Cursor returns a cursor positioned before the first slot.
func (h *Heap) Cursor() *Cursor { return &Cursor{h: h} }

// Next returns the next live row in physical order and false at the end.
func (c *Cursor) Next() (RID, value.Row, bool) {
	for c.i < len(c.h.rows) {
		rid := RID(c.i)
		c.i++
		if r := c.h.rows[rid]; r != nil {
			return rid, r, true
		}
	}
	return 0, nil, false
}

// Dump exposes the heap's exact physical state — slot array including
// tombstones (nil rows), free-list order, and row width — for
// serialization. RIDs are slot indices, and secondary indexes store RIDs
// as row locators, so hibernation must round-trip slots and free-list
// order exactly; re-inserting live rows would renumber them.
func (h *Heap) Dump() (rows []value.Row, free []RID, rowWidth int) {
	return h.rows, h.free, h.rowWidth
}

// Clone returns a heap with its own slots over the same rows.
func (h *Heap) Clone() *Heap {
	return &Heap{rows: slices.Clone(h.rows), free: slices.Clone(h.free), live: h.live, rowWidth: h.rowWidth}
}

// Restore reconstructs a heap from Dump output, validating that the free
// list matches the tombstoned slots exactly.
func Restore(rows []value.Row, free []RID, rowWidth int) (*Heap, error) {
	seen := make(map[RID]bool, len(free))
	for _, rid := range free {
		if rid < 0 || int(rid) >= len(rows) {
			return nil, fmt.Errorf("storage: free rid %d out of range", rid)
		}
		if rows[rid] != nil {
			return nil, fmt.Errorf("storage: free rid %d holds a live row", rid)
		}
		if seen[rid] {
			return nil, fmt.Errorf("storage: duplicate free rid %d", rid)
		}
		seen[rid] = true
	}
	live := int64(0)
	for i, r := range rows {
		if r != nil {
			live++
		} else if !seen[RID(i)] {
			return nil, fmt.Errorf("storage: tombstoned rid %d missing from free list", i)
		}
	}
	return &Heap{rows: rows, free: free, live: live, rowWidth: rowWidth}, nil
}
