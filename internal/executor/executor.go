// Package executor implements the physical operators that execute plans:
// project, sort, top, hash aggregation, hash join and nested-loops join
// over pull-based row streams. Predicates are not an operator: the
// engine's access source tests each stored row before it builds one.
// Operators charge *actual* CPU work to a Meter using the same cost units
// the optimizer estimates in; the engine's access paths charge actual
// page reads. The spread between the optimizer's estimate and the meter's
// measurement is the raw material of the paper's validation problem.
//
// A row is built only for a consumer that keeps it. Sort keeps the rows
// it is handed, and so does a hash join's build side; every other
// consumer reads a row and drops it. A source whose consumer does not
// keep its rows may hand out one row it reuses: a row given to such a
// consumer is valid until that consumer next calls Next on the same
// source. A hash-join probe row and a nested-loops outer row are held
// only while their matches are emitted, and their source is not advanced
// meanwhile. The joins write every output row into one buffer of their
// own, so a consumer that keeps a join's rows copies them.
package executor

import (
	"sort"

	"autoindex/internal/optimizer"
	"autoindex/internal/value"
)

// Meter accumulates the actual execution cost of one statement.
type Meter struct {
	PagesRead     float64
	PagesWritten  float64
	CPUUnits      float64
	RowsProcessed int64
}

// ChargePages records logical page reads.
func (m *Meter) ChargePages(p float64) { m.PagesRead += p }

// ChargePageWrites records page writes.
func (m *Meter) ChargePageWrites(p float64) { m.PagesWritten += p }

// ChargeRows records per-row CPU work for n rows.
func (m *Meter) ChargeRows(n int64) {
	m.RowsProcessed += n
	m.CPUUnits += float64(n) * optimizer.CPUPerRow
}

// ChargeCPU records raw CPU units.
func (m *Meter) ChargeCPU(u float64) { m.CPUUnits += u }

// TotalCost returns the combined cost in optimizer units.
func (m *Meter) TotalCost() float64 {
	return m.PagesRead + m.PagesWritten + m.CPUUnits
}

// Source is a pull-based row stream.
type Source interface {
	// Next returns the next row, or ok=false at end of stream.
	Next() (value.Row, bool)
}

// SliceSource yields rows from a materialized slice.
type SliceSource struct {
	Rows []value.Row
	i    int
}

// Next implements Source.
func (s *SliceSource) Next() (value.Row, bool) {
	if s.i >= len(s.Rows) {
		return nil, false
	}
	r := s.Rows[s.i]
	s.i++
	return r, true
}

// Drain consumes a source into a slice.
func Drain(s Source) []value.Row {
	var out []value.Row
	for {
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Project maps child rows through Fn.
type Project struct {
	Child Source
	Fn    func(value.Row) value.Row
	Meter *Meter
}

// Next implements Source.
func (p *Project) Next() (value.Row, bool) {
	r, ok := p.Child.Next()
	if !ok {
		return nil, false
	}
	p.Meter.ChargeRows(1)
	return p.Fn(r), true
}

// Sort materializes and sorts child rows by Less on first pull.
type Sort struct {
	Child Source
	Less  func(a, b value.Row) bool
	Meter *Meter

	sorted []value.Row
	done   bool
	i      int
}

// Next implements Source.
func (s *Sort) Next() (value.Row, bool) {
	if !s.done {
		s.sorted = Drain(s.Child)
		n := len(s.sorted)
		if n > 1 {
			sort.SliceStable(s.sorted, func(i, j int) bool { return s.Less(s.sorted[i], s.sorted[j]) })
			// n log n comparisons plus a pass.
			s.Meter.ChargeCPU(float64(n) * log2(float64(n)) * optimizer.CPUPerCompare)
		}
		s.Meter.ChargeRows(int64(n))
		s.done = true
	}
	if s.i >= len(s.sorted) {
		return nil, false
	}
	r := s.sorted[s.i]
	s.i++
	return r, true
}

func log2(f float64) float64 {
	n := 0.0
	for f > 1 {
		f /= 2
		n++
	}
	return n + 1
}

// Top yields at most N child rows.
type Top struct {
	Child Source
	N     int
	seen  int
}

// Next implements Source.
func (t *Top) Next() (value.Row, bool) {
	if t.seen >= t.N {
		return nil, false
	}
	r, ok := t.Child.Next()
	if !ok {
		return nil, false
	}
	t.seen++
	return r, true
}

// AggKind enumerates aggregate computations.
type AggKind int

// Aggregate kinds; AggKey passes a grouping column through.
const (
	AggKey AggKind = iota
	AggCountStar
	AggCountCol
	AggSum
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one output column of an aggregation: either a group key
// column (AggKey) or an aggregate over input column Col.
type AggSpec struct {
	Kind AggKind
	Col  int
}

// aggCell is one spec's running state within a group; n counts the
// non-NULL inputs it has seen.
type aggCell struct {
	n        int64
	sum      float64
	min, max value.Value
}

// aggGroup is one group: its key, COUNT(*), one cell per spec, and the
// next group in its hash chain (-1 ends it).
type aggGroup struct {
	key   value.Key
	count int64
	cells []aggCell
	next  int
}

// HashAgg groups child rows by GroupCols and computes Specs per group.
// When GroupCols is empty it produces a single scalar-aggregate row (even
// for empty input, matching SQL semantics). Each input row's key is built
// in one reused buffer and copied only when it opens a group, so the
// aggregation allocates per group, not per row.
type HashAgg struct {
	Child     Source
	GroupCols []int
	Specs     []AggSpec
	Meter     *Meter

	done   bool
	groups []aggGroup // in the order they were opened
	i      int
}

// Next implements Source.
func (h *HashAgg) Next() (value.Row, bool) {
	if !h.done {
		h.build()
		h.done = true
	}
	if h.i >= len(h.groups) {
		return nil, false
	}
	g := &h.groups[h.i]
	h.i++
	return h.render(g), true
}

func (h *HashAgg) build() {
	heads := make(map[uint64]int) // hash -> first group of its chain
	key := make(value.Key, len(h.GroupCols))
	for {
		r, ok := h.Child.Next()
		if !ok {
			break
		}
		h.Meter.ChargeRows(1)
		h.Meter.ChargeCPU(optimizer.HashBuildPerRow)
		for i, c := range h.GroupCols {
			key[i] = r[c]
		}
		hash := value.HashKey(key)
		head, ok := heads[hash]
		if !ok {
			head = -1
		}
		gi := head
		for gi >= 0 && !value.KeyEqual(h.groups[gi].key, key) {
			gi = h.groups[gi].next
		}
		if gi < 0 {
			gi = h.open(append(value.Key(nil), key...), head)
			heads[hash] = gi
		}
		g := &h.groups[gi]
		g.count++
		for i, spec := range h.Specs {
			switch spec.Kind {
			case AggCountCol, AggSum, AggAvg, AggMin, AggMax:
				v := r[spec.Col]
				if v.IsNull() {
					continue
				}
				c := &g.cells[i]
				if f, ok := v.AsFloat(); ok {
					c.sum += f
				}
				if c.n == 0 || value.Compare(v, c.min) < 0 {
					c.min = v
				}
				if c.n == 0 || value.Compare(v, c.max) > 0 {
					c.max = v
				}
				c.n++
			}
		}
	}
	if len(h.GroupCols) == 0 && len(h.groups) == 0 {
		// Scalar aggregate over empty input still yields one row.
		h.open(nil, -1)
	}
}

// open appends an empty group chained before next and returns its index.
func (h *HashAgg) open(key value.Key, next int) int {
	h.groups = append(h.groups, aggGroup{key: key, cells: make([]aggCell, len(h.Specs)), next: next})
	return len(h.groups) - 1
}

func (h *HashAgg) render(g *aggGroup) value.Row {
	out := make(value.Row, len(h.Specs))
	for i, spec := range h.Specs {
		c := g.cells[i]
		switch {
		case spec.Kind == AggKey:
			// Col indexes into the group key for AggKey specs.
			out[i] = g.key[spec.Col]
		case spec.Kind == AggCountStar:
			out[i] = value.NewInt(g.count)
		case spec.Kind == AggCountCol:
			out[i] = value.NewInt(c.n)
		case c.n == 0:
			out[i] = value.NewNull()
		case spec.Kind == AggSum:
			out[i] = value.NewFloat(c.sum)
		case spec.Kind == AggAvg:
			out[i] = value.NewFloat(c.sum / float64(c.n))
		case spec.Kind == AggMin:
			out[i] = c.min
		case spec.Kind == AggMax:
			out[i] = c.max
		}
	}
	return out
}

// HashJoin builds a hash table from the build side and probes it with the
// probe side. Output rows are probe row ++ build row, written into one
// buffer; a probe row's matches come out in build order.
type HashJoin struct {
	Probe    Source
	Build    Source
	ProbeCol int
	BuildCol int
	Meter    *Meter

	rows  []buildRow     // the build rows with a non-NULL key, in build order
	heads map[uint64]int // hash -> first build row of its chain; nil until built
	probe value.Row      // the probe row whose chain is being walked
	at    int            // the next build row of that chain; -1 when done
	out   value.Row
}

// buildRow is one build row and the next row in its hash chain (-1 ends
// it).
type buildRow struct {
	row  value.Row
	next int
}

// Next implements Source.
func (j *HashJoin) Next() (value.Row, bool) {
	if j.heads == nil {
		j.build()
	}
	for {
		for j.at >= 0 {
			b := &j.rows[j.at]
			j.at = b.next
			if value.Equal(b.row[j.BuildCol], j.probe[j.ProbeCol]) {
				j.out = append(append(j.out[:0], j.probe...), b.row...)
				return j.out, true
			}
		}
		p, ok := j.Probe.Next()
		if !ok {
			return nil, false
		}
		j.Meter.ChargeRows(1)
		v := p[j.ProbeCol]
		if v.IsNull() {
			continue
		}
		if head, ok := j.heads[v.Hash()]; ok {
			j.probe, j.at = p, head
		}
	}
}

func (j *HashJoin) build() {
	for {
		r, ok := j.Build.Next()
		if !ok {
			break
		}
		j.Meter.ChargeRows(1)
		j.Meter.ChargeCPU(optimizer.HashBuildPerRow)
		if !r[j.BuildCol].IsNull() {
			j.rows = append(j.rows, buildRow{row: r})
		}
	}
	// Link each chain from its last row back, so it reads in build order.
	j.heads = make(map[uint64]int)
	for i := len(j.rows) - 1; i >= 0; i-- {
		h := j.rows[i].row[j.BuildCol].Hash()
		j.rows[i].next = -1
		if head, ok := j.heads[h]; ok {
			j.rows[i].next = head
		}
		j.heads[h] = i
	}
	j.at = -1
}

// NLJoin is an index nested-loops join: for each outer row it asks Bind
// for a matching inner stream (typically an index seek on the join key).
// Output rows are outer row ++ inner row, written into one buffer.
type NLJoin struct {
	Outer    Source
	OuterCol int
	// Bind returns the inner rows matching the outer join key; the engine
	// implements it as an index seek, charging pages to the meter.
	Bind  func(key value.Value) Source
	Meter *Meter

	inner   Source
	current value.Row
	out     value.Row
}

// Next implements Source.
func (j *NLJoin) Next() (value.Row, bool) {
	for {
		if j.inner != nil {
			if r, ok := j.inner.Next(); ok {
				j.out = append(append(j.out[:0], j.current...), r...)
				return j.out, true
			}
			j.inner = nil
		}
		o, ok := j.Outer.Next()
		if !ok {
			return nil, false
		}
		j.Meter.ChargeRows(1)
		v := o[j.OuterCol]
		if v.IsNull() {
			continue
		}
		j.current = o
		j.inner = j.Bind(v)
	}
}
