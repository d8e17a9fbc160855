package optimizer

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"autoindex/internal/dmv"
	"autoindex/internal/metrics"
	"autoindex/internal/schema"
	"autoindex/internal/sqlparser"
)

// ErrWhatIfUnsupported is returned when a statement cannot be optimized in
// what-if mode (the real API has the same limitation for BULK INSERT and
// incomplete batches, §5.3.2).
var ErrWhatIfUnsupported = fmt.Errorf("optimizer: statement cannot be optimized in what-if mode")

// MIObserver receives missing-index candidates emitted during query
// optimization; the engine wires it to the MI DMV store.
type MIObserver interface {
	ObserveMissingIndex(c dmv.Candidate, queryHash uint64, estCost, improvementPct float64)
}

// Optimizer plans statements against a catalog.
type Optimizer struct {
	Cat Catalog
	// MI, when non-nil, receives missing-index candidates (disabled in
	// what-if mode so DTA's probing does not pollute the DMV).
	MI MIObserver
	// WhatIfMode marks planning on behalf of the what-if API.
	WhatIfMode bool
	// Reg, when non-nil, receives optimizer metrics (plan counts split
	// by mode). A nil registry disables them without branching here.
	Reg *metrics.Registry

	calls int64
}

// Calls returns how many optimizations this optimizer has performed;
// what-if call budgeting in DTA reads it.
func (o *Optimizer) Calls() int64 { return atomic.LoadInt64(&o.calls) }

// Plan builds a physical plan for stmt.
func (o *Optimizer) Plan(stmt sqlparser.Statement) (*Plan, error) {
	atomic.AddInt64(&o.calls, 1)
	if o.WhatIfMode {
		o.Reg.Counter(descWhatIfCalls).Inc()
	} else {
		o.Reg.Counter(descPlans).Inc()
	}
	var root *Node
	var err error
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		root, err = o.planSelect(s)
	case *sqlparser.InsertStmt:
		root, err = o.planInsert(s)
	case *sqlparser.UpdateStmt:
		root, err = o.planUpdate(s)
	case *sqlparser.DeleteStmt:
		root, err = o.planDelete(s)
	case *sqlparser.BulkInsertStmt:
		if o.WhatIfMode {
			return nil, ErrWhatIfUnsupported
		}
		root, err = o.planBulkInsert(s)
	default:
		return nil, fmt.Errorf("optimizer: cannot plan %T", stmt)
	}
	if err != nil {
		return nil, err
	}
	p := &Plan{Stmt: stmt, Root: root}
	p.finalize()
	if !o.WhatIfMode {
		p.QueryHash = stmt.Fingerprint()
	}
	if o.MI != nil && !o.WhatIfMode {
		o.emitMissingIndexes(stmt, p)
	}
	return p, nil
}

// ---- binding ----

type boundTable struct {
	ref   sqlparser.TableRef
	info  TableInfo
	preds []sqlparser.Predicate
	// needed is the set of this table's columns referenced by the query.
	// It is nil for the table an UPDATE or DELETE modifies: the write
	// reads whole base rows, so a secondary index serves it only by
	// lookups.
	needed map[string]bool
}

func (b *boundTable) neededCols() []string {
	out := make([]string, 0, len(b.needed))
	for c := range b.needed {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

type binding struct {
	tables []*boundTable
	byName map[string]*boundTable
}

func (o *Optimizer) bind(from sqlparser.TableRef, joins []sqlparser.Join) (*binding, error) {
	b := &binding{byName: make(map[string]*boundTable)}
	add := func(ref sqlparser.TableRef) error {
		info, ok := o.Cat.Table(ref.Table)
		if !ok {
			return fmt.Errorf("optimizer: unknown table %q", ref.Table)
		}
		bt := &boundTable{ref: ref, info: info, needed: make(map[string]bool)}
		b.tables = append(b.tables, bt)
		key := strings.ToLower(ref.Name())
		if _, dup := b.byName[key]; dup {
			return fmt.Errorf("optimizer: duplicate table alias %q", ref.Name())
		}
		b.byName[key] = bt
		if ref.Alias != "" {
			b.byName[strings.ToLower(ref.Table)] = bt
		}
		return nil
	}
	if err := add(from); err != nil {
		return nil, err
	}
	for _, j := range joins {
		if err := add(j.Table); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// resolve maps a column reference to its table and canonical column name.
func (b *binding) resolve(c sqlparser.ColRef) (*boundTable, string, error) {
	if c.Table != "" {
		bt := b.byName[strings.ToLower(c.Table)]
		if bt == nil {
			return nil, "", fmt.Errorf("optimizer: unknown table or alias %q", c.Table)
		}
		idx := bt.info.Def.ColumnIndex(c.Column)
		if idx < 0 {
			return nil, "", fmt.Errorf("optimizer: column %q not in table %q", c.Column, bt.ref.Table)
		}
		return bt, bt.info.Def.Columns[idx].Name, nil
	}
	var found *boundTable
	var name string
	for _, bt := range b.tables {
		if idx := bt.info.Def.ColumnIndex(c.Column); idx >= 0 {
			if found != nil {
				return nil, "", fmt.Errorf("optimizer: ambiguous column %q", c.Column)
			}
			found = bt
			name = bt.info.Def.Columns[idx].Name
		}
	}
	if found == nil {
		return nil, "", fmt.Errorf("optimizer: unknown column %q", c.Column)
	}
	return found, name, nil
}

func (b *binding) need(bt *boundTable, col string) { bt.needed[strings.ToLower(col)] = true }

// ---- selectivity estimation ----

// Fallback selectivities when no statistics exist (SQL Server uses similar
// magic constants).
const (
	defaultEqSel    = 0.01
	defaultRangeSel = 0.30
	defaultNeSel    = 0.90
)

func (o *Optimizer) selectivity(table string, p sqlparser.Predicate, col string) float64 {
	st, ok := o.Cat.ColumnStats(table, col)
	if !ok || st == nil {
		switch {
		case p.Op.IsEquality():
			return defaultEqSel
		case p.Op.IsRange():
			return defaultRangeSel
		default:
			return defaultNeSel
		}
	}
	switch p.Op {
	case sqlparser.OpEQ:
		return st.SelectivityEq(p.Val)
	case sqlparser.OpNE:
		return clamp01(1 - st.SelectivityEq(p.Val))
	case sqlparser.OpLT:
		v := p.Val
		return st.SelectivityRange(nil, false, &v, false)
	case sqlparser.OpLE:
		v := p.Val
		return st.SelectivityRange(nil, false, &v, true)
	case sqlparser.OpGT:
		v := p.Val
		return st.SelectivityRange(&v, false, nil, false)
	case sqlparser.OpGE:
		v := p.Val
		return st.SelectivityRange(&v, true, nil, false)
	default:
		return defaultNeSel
	}
}

func clamp01(f float64) float64 {
	switch {
	case f < 0:
		return 0
	case f > 1:
		return 1
	default:
		return f
	}
}

func (o *Optimizer) distinct(table, col string) float64 {
	if st, ok := o.Cat.ColumnStats(table, col); ok && st != nil && st.Distinct > 0 {
		return st.Distinct
	}
	if t, ok := o.Cat.Table(table); ok {
		d := float64(t.RowCount) / 10
		if d < 1 {
			d = 1
		}
		return d
	}
	return 100
}

// ---- access path selection ----

// accessPath describes one candidate way to read a table.
type accessPath struct {
	node *Node
	// orderedBy lists the columns (lowercased) the output is sorted by
	// (ascending), after any equality-prefix seek.
	orderedBy []string
	covering  bool
}

// bestAccessPath chooses the cheapest access for bt given its predicates
// and the columns the rest of the plan needs from it.
func (o *Optimizer) bestAccessPath(bt *boundTable) accessPath {
	paths := o.enumerateAccessPaths(bt)
	best := paths[0]
	for _, p := range paths[1:] {
		if p.node.EstCost < best.node.EstCost {
			best = p
		}
	}
	return best
}

func (o *Optimizer) enumerateAccessPaths(bt *boundTable) []accessPath {
	var paths []accessPath
	paths = append(paths, o.baseScanPath(bt))
	if p, ok := o.clusteredSeekPath(bt); ok {
		paths = append(paths, p)
	}
	for _, ix := range o.Cat.Indexes(bt.ref.Table) {
		if ix.Def.Kind == schema.Clustered {
			continue // the clustered index is the base scan
		}
		if p, ok := o.indexPath(bt, ix); ok {
			paths = append(paths, p)
		}
	}
	return paths
}

// clusteredSeekPath seeks the clustered index when predicates match a
// primary-key prefix. The clustered index covers every column, so the path
// never needs a lookup.
func (o *Optimizer) clusteredSeekPath(bt *boundTable) (accessPath, bool) {
	if bt.info.ClusteredHeight == 0 || len(bt.info.Def.PrimaryKey) == 0 {
		return accessPath{}, false
	}
	var nonKey []string
	for _, c := range bt.info.Def.Columns {
		inPK := false
		for _, pk := range bt.info.Def.PrimaryKey {
			if strings.EqualFold(pk, c.Name) {
				inPK = true
				break
			}
		}
		if !inPK {
			nonKey = append(nonKey, c.Name)
		}
	}
	synthetic := IndexInfo{
		Def: schema.IndexDef{
			Name:            clusteredIndexName(bt.ref.Table),
			Table:           bt.ref.Table,
			Kind:            schema.Clustered,
			KeyColumns:      append([]string(nil), bt.info.Def.PrimaryKey...),
			IncludedColumns: nonKey,
		},
		Height:    bt.info.ClusteredHeight,
		LeafPages: bt.info.DataPages,
		RowCount:  bt.info.RowCount,
	}
	p, ok := o.indexPath(bt, synthetic)
	if !ok {
		return accessPath{}, false
	}
	// Only a genuine seek adds value; a covering scan of the clustered
	// index is the base scan.
	if p.node.Kind != KindIndexSeek {
		return accessPath{}, false
	}
	return p, true
}

// baseScanPath scans the heap or clustered index, applying all predicates
// as residual filters.
func (o *Optimizer) baseScanPath(bt *boundTable) accessPath {
	rows := float64(bt.info.RowCount)
	out := rows
	for _, p := range bt.preds {
		out *= o.selectivity(bt.ref.Table, p, p.Col.Column)
	}
	n := &Node{
		Kind:     KindSeqScan,
		Table:    bt.ref.Table,
		Alias:    bt.ref.Name(),
		Residual: bt.preds,
		EstRows:  math.Max(out, 0),
		EstCost:  float64(bt.info.DataPages) + rows*CPUPerRow,
	}
	var ordered []string
	if bt.info.ClusteredHeight > 0 {
		for _, pk := range bt.info.Def.PrimaryKey {
			ordered = append(ordered, strings.ToLower(pk))
		}
	}
	return accessPath{node: n, orderedBy: ordered, covering: true}
}

// indexPath builds a seek or covering-scan path over ix, if useful.
func (o *Optimizer) indexPath(bt *boundTable, ix IndexInfo) (accessPath, bool) {
	if ix.Def.Hypothetical && !o.WhatIfMode {
		// Hypothetical indexes are only visible to what-if planning.
		return accessPath{}, false
	}
	rows := float64(bt.info.RowCount)
	// Partition predicates among seek-eq (key prefix), one seek-range (next
	// key column), and residual.
	remaining := append([]sqlparser.Predicate(nil), bt.preds...)
	var seekEq, seekRange, residual []sqlparser.Predicate
	matchedCols := 0
	for _, keyCol := range ix.Def.KeyColumns {
		found := -1
		for i, p := range remaining {
			if strings.EqualFold(p.Col.Column, keyCol) && p.Op.IsEquality() {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		seekEq = append(seekEq, remaining[found])
		remaining = append(remaining[:found], remaining[found+1:]...)
		matchedCols++
	}
	// One range predicate pair on the next key column (SQL Server's storage
	// engine can seek multiple equality predicates but only one inequality,
	// §5.2).
	if matchedCols < len(ix.Def.KeyColumns) {
		next := ix.Def.KeyColumns[matchedCols]
		kept := remaining[:0]
		for _, p := range remaining {
			if strings.EqualFold(p.Col.Column, next) && p.Op.IsRange() && len(seekRange) < 2 {
				// Accept at most one lower and one upper bound.
				dir := rangeDir(p.Op)
				dup := false
				for _, q := range seekRange {
					if rangeDir(q.Op) == dir {
						dup = true
					}
				}
				if !dup {
					seekRange = append(seekRange, p)
					continue
				}
			}
			kept = append(kept, p)
		}
		remaining = kept
	}
	residual = remaining
	covering := (bt.needed != nil || ix.Def.Kind == schema.Clustered) && coversWithLocator(ix.Def, bt.info, bt.neededCols())
	if len(seekEq) == 0 && len(seekRange) == 0 {
		// No sargable predicate: only useful as a covering scan narrower
		// than the base table.
		if !covering {
			return accessPath{}, false
		}
		n := &Node{
			Kind:     KindIndexScan,
			Table:    bt.ref.Table,
			Alias:    bt.ref.Name(),
			Index:    ix.Def.Name,
			Residual: residual,
			EstRows:  o.filteredRows(bt, rows, nil, nil, residual),
			EstCost:  float64(ix.LeafPages) + rows*CPUPerRow,
		}
		return accessPath{node: n, orderedBy: lowerAll(ix.Def.KeyColumns), covering: true}, true
	}

	seekSel := 1.0
	for _, p := range seekEq {
		seekSel *= o.selectivity(bt.ref.Table, p, p.Col.Column)
	}
	for _, p := range seekRange {
		seekSel *= o.selectivity(bt.ref.Table, p, p.Col.Column)
	}
	seekRows := rows * seekSel
	outRows := seekRows
	for _, p := range residual {
		outRows *= o.selectivity(bt.ref.Table, p, p.Col.Column)
	}
	leafFrac := seekRows / math.Max(rows, 1)
	leafPages := math.Max(1, float64(ix.LeafPages)*leafFrac)
	cost := float64(ix.Height) + leafPages + seekRows*CPUPerRow
	lookup := !covering
	if lookup {
		lookupHeight := float64(bt.info.ClusteredHeight)
		if lookupHeight == 0 {
			lookupHeight = 1 // heap RID lookup
		}
		cost += seekRows * lookupHeight * RandomPageFactor
	}
	n := &Node{
		Kind:      KindIndexSeek,
		Table:     bt.ref.Table,
		Alias:     bt.ref.Name(),
		Index:     ix.Def.Name,
		SeekEq:    seekEq,
		SeekRange: seekRange,
		Residual:  residual,
		Lookup:    lookup,
		EstRows:   outRows,
		EstCost:   cost,
	}
	// Output ordering: with the equality prefix fixed, results are sorted
	// by the remaining key columns. A range seek preserves order on its
	// own column too.
	ordered := lowerAll(ix.Def.KeyColumns[len(seekEq):])
	return accessPath{node: n, orderedBy: ordered, covering: covering}, true
}

// coversWithLocator reports whether the index covers cols, counting the
// clustered key columns that every non-clustered leaf entry implicitly
// carries as the row locator (SQL Server semantics).
func coversWithLocator(def schema.IndexDef, t TableInfo, cols []string) bool {
	for _, c := range cols {
		if def.HasColumn(c) {
			continue
		}
		inPK := false
		if t.ClusteredHeight > 0 {
			for _, pk := range t.Def.PrimaryKey {
				if strings.EqualFold(pk, c) {
					inPK = true
					break
				}
			}
		}
		if !inPK {
			return false
		}
	}
	return true
}

func rangeDir(op sqlparser.CompareOp) int {
	if op == sqlparser.OpGT || op == sqlparser.OpGE {
		return 1 // lower bound
	}
	return -1 // upper bound
}

func lowerAll(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = strings.ToLower(c)
	}
	return out
}

func (o *Optimizer) filteredRows(bt *boundTable, rows float64, eq, rng, residual []sqlparser.Predicate) float64 {
	out := rows
	for _, set := range [][]sqlparser.Predicate{eq, rng, residual} {
		for _, p := range set {
			out *= o.selectivity(bt.ref.Table, p, p.Col.Column)
		}
	}
	return out
}

// ---- SELECT planning ----

func (o *Optimizer) planSelect(s *sqlparser.SelectStmt) (*Node, error) {
	b, err := o.bind(s.From, s.Joins)
	if err != nil {
		return nil, err
	}
	// Distribute predicates and collect needed columns.
	for _, p := range s.Where {
		bt, col, err := b.resolve(p.Col)
		if err != nil {
			return nil, err
		}
		q := p
		q.Col = sqlparser.ColRef{Table: bt.ref.Name(), Column: col}
		bt.preds = append(bt.preds, q)
		b.need(bt, col)
	}
	star := false
	for _, it := range s.Items {
		if it.Star {
			star = true
			continue
		}
		if it.Agg == sqlparser.AggCount {
			continue
		}
		bt, col, err := b.resolve(it.Col)
		if err != nil {
			return nil, err
		}
		b.need(bt, col)
	}
	if star {
		for _, bt := range b.tables {
			for _, c := range bt.info.Def.Columns {
				b.need(bt, c.Name)
			}
		}
	}
	type joinCols struct {
		left, right *boundTable
		lcol, rcol  string
	}
	var joins []joinCols
	for _, j := range s.Joins {
		lbt, lcol, err := b.resolve(j.Left)
		if err != nil {
			return nil, err
		}
		rbt, rcol, err := b.resolve(j.Right)
		if err != nil {
			return nil, err
		}
		b.need(lbt, lcol)
		b.need(rbt, rcol)
		joins = append(joins, joinCols{lbt, rbt, lcol, rcol})
	}
	for _, g := range s.GroupBy {
		bt, col, err := b.resolve(g)
		if err != nil {
			return nil, err
		}
		b.need(bt, col)
	}
	for _, ob := range s.OrderBy {
		bt, col, err := b.resolve(ob.Col)
		if err != nil {
			return nil, err
		}
		b.need(bt, col)
	}

	// Access path for the first table; joins are applied in written order
	// (left-deep), choosing nested-loops-with-seek when the inner table has
	// a usable index on its join column, hash join otherwise.
	first := o.bestAccessPath(b.tables[0])
	current := first.node
	ordered := first.orderedBy
	for _, jc := range joins {
		inner := jc.right
		outerCol := sqlparser.ColRef{Table: jc.left.ref.Name(), Column: jc.lcol}
		innerCol := sqlparser.ColRef{Table: inner.ref.Name(), Column: jc.rcol}
		if jc.right == b.tables[0] || containsTable(current, jc.right.ref.Name()) {
			// The "right" side is already in the current subtree; swap.
			inner = jc.left
			outerCol, innerCol = innerCol, outerCol
		}
		joinNode := o.planJoin(current, inner, outerCol, innerCol)
		current = joinNode
		ordered = nil // joins destroy base ordering in this model
	}

	// Aggregation.
	hasAgg := false
	for _, it := range s.Items {
		if it.Agg != sqlparser.AggNone {
			hasAgg = true
		}
	}
	if len(s.GroupBy) > 0 {
		groups := 1.0
		for _, g := range s.GroupBy {
			bt, col, _ := b.resolve(g)
			if bt != nil {
				groups *= o.distinct(bt.ref.Table, col)
			}
		}
		groups = math.Min(groups, math.Max(current.EstRows, 1))
		agg := &Node{
			Kind:     KindHashAgg,
			GroupBy:  s.GroupBy,
			Items:    s.Items,
			Children: []*Node{current},
			EstRows:  groups,
			EstCost:  current.EstCost + current.EstRows*HashBuildPerRow,
		}
		current = agg
		ordered = nil
	} else if hasAgg {
		agg := &Node{
			Kind:     KindScalarAgg,
			Items:    s.Items,
			Children: []*Node{current},
			EstRows:  1,
			EstCost:  current.EstCost + current.EstRows*CPUPerRow,
		}
		current = agg
		ordered = nil
	}

	// Ordering.
	if len(s.OrderBy) > 0 && !orderSatisfied(s.OrderBy, ordered) {
		rows := math.Max(current.EstRows, 1)
		sortCost := rows*math.Log2(rows+1)*CPUPerCompare + rows*CPUPerRow
		current = &Node{
			Kind:     KindSort,
			OrderBy:  s.OrderBy,
			Children: []*Node{current},
			EstRows:  current.EstRows,
			EstCost:  current.EstCost + sortCost,
		}
	}
	if s.Top > 0 {
		rows := math.Min(float64(s.Top), math.Max(current.EstRows, 0))
		current = &Node{
			Kind:     KindTop,
			TopN:     s.Top,
			Children: []*Node{current},
			EstRows:  rows,
			EstCost:  current.EstCost + rows*CPUPerRow,
		}
	}
	// Final projection.
	current = &Node{
		Kind:     KindProject,
		Items:    s.Items,
		Children: []*Node{current},
		EstRows:  current.EstRows,
		EstCost:  current.EstCost + current.EstRows*CPUPerRow,
	}
	return current, nil
}

func containsTable(n *Node, alias string) bool {
	if strings.EqualFold(n.Alias, alias) {
		return true
	}
	for _, c := range n.Children {
		if containsTable(c, alias) {
			return true
		}
	}
	return false
}

// planJoin joins the current subtree (outer) with bound table inner.
func (o *Optimizer) planJoin(outer *Node, inner *boundTable, outerCol, innerCol sqlparser.ColRef) *Node {
	outRows := joinCardinality(o, outer.EstRows, inner, innerCol.Column)

	// Option 1: nested loops with an index seek on the inner join column.
	var bestNL *Node
	for _, ix := range o.Cat.Indexes(inner.ref.Table) {
		if ix.Def.Hypothetical && !o.WhatIfMode {
			continue
		}
		if ix.Def.Kind == schema.Clustered {
			continue
		}
		if len(ix.Def.KeyColumns) == 0 || !strings.EqualFold(ix.Def.KeyColumns[0], innerCol.Column) {
			continue
		}
		matchRows := float64(inner.info.RowCount) / math.Max(o.distinct(inner.ref.Table, innerCol.Column), 1)
		covering := coversWithLocator(ix.Def, inner.info, inner.neededCols())
		perProbe := float64(ix.Height) + math.Max(1, matchRows/100)
		if !covering {
			h := float64(inner.info.ClusteredHeight)
			if h == 0 {
				h = 1
			}
			perProbe += matchRows * h * RandomPageFactor
		}
		// Residual predicates on the inner table are applied per probe.
		cost := outer.EstCost + outer.EstRows*perProbe + outer.EstRows*CPUPerRow
		innerAccess := &Node{
			Kind:     KindIndexSeek,
			Table:    inner.ref.Table,
			Alias:    inner.ref.Name(),
			Index:    ix.Def.Name,
			Residual: inner.preds,
			Lookup:   !covering,
			EstRows:  matchRows,
			EstCost:  perProbe,
		}
		n := &Node{
			Kind:      KindNLJoin,
			JoinLeft:  outerCol,
			JoinRight: innerCol,
			Children:  []*Node{outer, innerAccess},
			EstRows:   outRows,
			EstCost:   cost,
		}
		if bestNL == nil || n.EstCost < bestNL.EstCost {
			bestNL = n
		}
	}
	// Clustered-key NL: seek the clustered index when the join column is
	// the leading primary-key column.
	if len(inner.info.Def.PrimaryKey) > 0 && strings.EqualFold(inner.info.Def.PrimaryKey[0], innerCol.Column) && inner.info.ClusteredHeight > 0 {
		matchRows := float64(inner.info.RowCount) / math.Max(o.distinct(inner.ref.Table, innerCol.Column), 1)
		perProbe := float64(inner.info.ClusteredHeight) + math.Max(1, matchRows/100)
		cost := outer.EstCost + outer.EstRows*perProbe + outer.EstRows*CPUPerRow
		innerAccess := &Node{
			Kind:     KindIndexSeek,
			Table:    inner.ref.Table,
			Alias:    inner.ref.Name(),
			Index:    clusteredIndexName(inner.ref.Table),
			Residual: inner.preds,
			EstRows:  matchRows,
			EstCost:  perProbe,
		}
		n := &Node{
			Kind:      KindNLJoin,
			JoinLeft:  outerCol,
			JoinRight: innerCol,
			Children:  []*Node{outer, innerAccess},
			EstRows:   outRows,
			EstCost:   cost,
		}
		if bestNL == nil || n.EstCost < bestNL.EstCost {
			bestNL = n
		}
	}

	// Option 2: hash join, building on the inner side's best access path.
	innerPath := o.bestAccessPath(inner)
	hashCost := outer.EstCost + innerPath.node.EstCost +
		innerPath.node.EstRows*HashBuildPerRow + outer.EstRows*CPUPerRow
	hash := &Node{
		Kind:      KindHashJoin,
		JoinLeft:  outerCol,
		JoinRight: innerCol,
		Children:  []*Node{outer, innerPath.node},
		EstRows:   outRows,
		EstCost:   hashCost,
	}
	if bestNL != nil && bestNL.EstCost < hash.EstCost {
		return bestNL
	}
	return hash
}

// clusteredIndexName is the synthetic name under which the clustered index
// appears in plans (for usage accounting and plan fingerprints).
func clusteredIndexName(table string) string { return "PK_" + table }

// ClusteredIndexName exposes the naming rule to the engine.
func ClusteredIndexName(table string) string { return clusteredIndexName(table) }

func joinCardinality(o *Optimizer, outerRows float64, inner *boundTable, innerCol string) float64 {
	innerRows := float64(inner.info.RowCount)
	for _, p := range inner.preds {
		innerRows *= o.selectivity(inner.ref.Table, p, p.Col.Column)
	}
	d := math.Max(o.distinct(inner.ref.Table, innerCol), 1)
	out := outerRows * innerRows / d
	if out < 0 {
		out = 0
	}
	return out
}

func orderSatisfied(orderBy []sqlparser.OrderItem, ordered []string) bool {
	if len(ordered) < len(orderBy) {
		return false
	}
	for i, ob := range orderBy {
		if ob.Desc {
			return false // executor scans forward only
		}
		if strings.ToLower(ob.Col.Column) != ordered[i] {
			return false
		}
	}
	return true
}

// ---- write planning ----

func (o *Optimizer) realIndexes(table string) []IndexInfo {
	var out []IndexInfo
	for _, ix := range o.Cat.Indexes(table) {
		if !ix.Def.Hypothetical || o.WhatIfMode {
			out = append(out, ix)
		}
	}
	return out
}

func (o *Optimizer) planInsert(s *sqlparser.InsertStmt) (*Node, error) {
	t, ok := o.Cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown table %q", s.Table)
	}
	rows := float64(len(s.Rows))
	return o.insertNode(t, s.Table, rows)
}

func (o *Optimizer) planBulkInsert(s *sqlparser.BulkInsertStmt) (*Node, error) {
	t, ok := o.Cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown table %q", s.Table)
	}
	return o.insertNode(t, s.Table, float64(s.RowEstimate))
}

func (o *Optimizer) insertNode(t TableInfo, table string, rows float64) (*Node, error) {
	baseH := float64(t.ClusteredHeight)
	if baseH == 0 {
		baseH = 1
	}
	cost := rows * baseH
	var maint []string
	for _, ix := range o.realIndexes(table) {
		if ix.Def.Kind == schema.Clustered {
			continue
		}
		maint = append(maint, ix.Def.Name)
		cost += rows * float64(ix.Height) // random page touches per entry
	}
	cost += rows * CPUPerRow * float64(1+len(maint))
	return &Node{
		Kind:         KindInsert,
		Table:        table,
		WriteRows:    rows,
		MaintIndexes: maint,
		EstRows:      0,
		EstCost:      cost,
	}, nil
}

func (o *Optimizer) planUpdate(s *sqlparser.UpdateStmt) (*Node, error) {
	access, err := o.planWriteAccess(s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	rows := access.EstRows
	cost := access.EstCost + rows // base row write
	var maint []string
	for _, ix := range o.realIndexes(s.Table) {
		if ix.Def.Kind == schema.Clustered {
			continue
		}
		affected := false
		for _, a := range s.Set {
			if ix.Def.HasColumn(a.Column) {
				affected = true
				break
			}
		}
		if affected {
			maint = append(maint, ix.Def.Name)
			cost += rows * 2 * float64(ix.Height) // delete + insert of the entry
		}
	}
	cost += rows * CPUPerRow * float64(1+len(maint))
	return &Node{
		Kind:         KindUpdate,
		Table:        s.Table,
		Set:          s.Set,
		WriteRows:    rows,
		MaintIndexes: maint,
		Children:     []*Node{access},
		EstRows:      0,
		EstCost:      cost,
	}, nil
}

func (o *Optimizer) planDelete(s *sqlparser.DeleteStmt) (*Node, error) {
	access, err := o.planWriteAccess(s.Table, s.Where)
	if err != nil {
		return nil, err
	}
	rows := access.EstRows
	cost := access.EstCost + rows
	var maint []string
	for _, ix := range o.realIndexes(s.Table) {
		if ix.Def.Kind == schema.Clustered {
			continue
		}
		maint = append(maint, ix.Def.Name)
		cost += rows * float64(ix.Height)
	}
	cost += rows * CPUPerRow * float64(1+len(maint))
	return &Node{
		Kind:         KindDelete,
		Table:        s.Table,
		WriteRows:    rows,
		MaintIndexes: maint,
		Children:     []*Node{access},
		EstRows:      0,
		EstCost:      cost,
	}, nil
}

// planWriteAccess plans the row-identification part of an UPDATE/DELETE.
func (o *Optimizer) planWriteAccess(table string, where []sqlparser.Predicate) (*Node, error) {
	b, err := o.bind(sqlparser.TableRef{Table: table}, nil)
	if err != nil {
		return nil, err
	}
	bt := b.tables[0]
	bt.needed = nil
	for _, p := range where {
		_, col, err := b.resolve(p.Col)
		if err != nil {
			return nil, err
		}
		q := p
		q.Col = sqlparser.ColRef{Table: bt.ref.Name(), Column: col}
		bt.preds = append(bt.preds, q)
	}
	return o.bestAccessPath(bt).node, nil
}

// ---- what-if convenience ----

// CostStatement plans stmt and returns its estimated cost. DTA drives its
// search with this call.
func (o *Optimizer) CostStatement(stmt sqlparser.Statement) (float64, *Plan, error) {
	p, err := o.Plan(stmt)
	if err != nil {
		return 0, nil, err
	}
	return p.EstCost, p, nil
}
