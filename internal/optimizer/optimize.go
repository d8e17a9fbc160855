package optimizer

import (
	"fmt"
	"math"
	mathbits "math/bits"
	"slices"
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
		root, err = o.planInsert(s.Table, float64(len(s.Rows)))
	case *sqlparser.UpdateStmt:
		root, err = o.planWrite(Node{Kind: KindUpdate, Table: s.Table, Set: s.Set}, s.Where)
	case *sqlparser.DeleteStmt:
		root, err = o.planWrite(Node{Kind: KindDelete, Table: s.Table}, s.Where)
	case *sqlparser.BulkInsertStmt:
		if o.WhatIfMode {
			return nil, ErrWhatIfUnsupported
		}
		root, err = o.planInsert(s.Table, float64(s.RowEstimate))
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

// boundTable is one FROM table of a plan. bind resolves each predicate's
// column, and each column the query needs, to its ordinal in the table
// definition once; every access path then matches key columns, tests
// covering and prices predicates by ordinal.
type boundTable struct {
	ref  sqlparser.TableRef
	info TableInfo
	// preds are the table's predicates in written order, each column
	// rewritten to the table's binding name and canonical column name.
	preds []boundPred
	// needed is the set of this table's columns the query references.
	// reads is false for the table an UPDATE or DELETE modifies: the
	// write reads whole base rows, so a secondary index serves it only by
	// lookups.
	needed colSet
	reads  bool
	pkOrds []int
	// indexes is the catalog's list for the table, read once per plan.
	indexes []IndexInfo
	// used marks the predicates the key of the index being priced
	// matched; the rest are its residual.
	used colSet
	// The sets and primary-key ordinals of narrow tables live here.
	neededBuf, usedBuf [1]uint64
	pkBuf              [2]int
}

// boundPred is a predicate with its column's ordinal and selectivity,
// estimated on first use (NaN until then) and reused by every path.
type boundPred struct {
	sqlparser.Predicate
	ord int
	sel float64
}

// colSet is a set of small non-negative integers (column ordinals or
// predicate positions), one bit each.
type colSet []uint64

func newColSet(buf []uint64, n int) colSet {
	if words := (n + 63) / 64; words > len(buf) {
		return make(colSet, words)
	}
	return buf
}

func (s colSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s colSet) has(i int) bool { return i >= 0 && i/64 < len(s) && s[i/64]&(1<<(i%64)) != 0 }

// binding is a plan's FROM tables in written order.
type binding []boundTable

func (o *Optimizer) bind(from sqlparser.TableRef, joins []sqlparser.Join) (binding, error) {
	b := make(binding, 0, 1+len(joins))
	for i := 0; i <= len(joins); i++ {
		ref := from
		if i > 0 {
			ref = joins[i-1].Table
		}
		info, ok := o.Cat.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("optimizer: unknown table %q", ref.Table)
		}
		if b.lookup(ref.Name()) != nil {
			return nil, fmt.Errorf("optimizer: duplicate table alias %q", ref.Name())
		}
		b = append(b, boundTable{ref: ref, info: info, reads: true, indexes: o.Cat.Indexes(ref.Table)})
		bt := &b[len(b)-1] // b never grows past its capacity
		bt.needed = newColSet(bt.neededBuf[:], len(info.Def.Columns))
		bt.pkOrds = bt.pkBuf[:0]
		for _, pk := range info.Def.PrimaryKey {
			bt.pkOrds = append(bt.pkOrds, info.Def.ColumnIndex(pk))
		}
	}
	return b, nil
}

// lookup finds the table a qualifier names: the last table whose alias,
// or whose name when it is aliased too, matches.
func (b binding) lookup(name string) *boundTable {
	for i := len(b) - 1; i >= 0; i-- {
		ref := b[i].ref
		if strings.EqualFold(ref.Name(), name) || (ref.Alias != "" && strings.EqualFold(ref.Table, name)) {
			return &b[i]
		}
	}
	return nil
}

// resolve maps a column reference to its table and the column's ordinal.
func (b binding) resolve(c sqlparser.ColRef) (*boundTable, int, error) {
	if c.Table != "" {
		bt := b.lookup(c.Table)
		if bt == nil {
			return nil, -1, fmt.Errorf("optimizer: unknown table or alias %q", c.Table)
		}
		ord := bt.info.Def.ColumnIndex(c.Column)
		if ord < 0 {
			return nil, -1, fmt.Errorf("optimizer: column %q not in table %q", c.Column, bt.ref.Table)
		}
		return bt, ord, nil
	}
	var found *boundTable
	ord := -1
	for i := range b {
		if o := b[i].info.Def.ColumnIndex(c.Column); o >= 0 {
			if found != nil {
				return nil, -1, fmt.Errorf("optimizer: ambiguous column %q", c.Column)
			}
			found, ord = &b[i], o
		}
	}
	if found == nil {
		return nil, -1, fmt.Errorf("optimizer: unknown column %q", c.Column)
	}
	return found, ord, nil
}

// need resolves c and adds it to its table's needed columns.
func (b binding) need(c sqlparser.ColRef) error {
	bt, ord, err := b.resolve(c)
	if err == nil {
		bt.needed.add(ord)
	}
	return err
}

// column is the canonical name of the column at ord.
func (bt *boundTable) column(ord int) string { return bt.info.Def.Columns[ord].Name }

// addPred binds a predicate on the column at ord; capacity is how many
// predicates the statement has in all.
func (bt *boundTable) addPred(p sqlparser.Predicate, ord, capacity int) {
	if bt.preds == nil {
		bt.preds = make([]boundPred, 0, capacity)
	}
	p.Col = sqlparser.ColRef{Table: bt.ref.Name(), Column: bt.column(ord)}
	bt.preds = append(bt.preds, boundPred{Predicate: p, ord: ord, sel: math.NaN()})
}

// visible reports whether this optimization may use ix: hypothetical
// indexes are only visible to what-if planning.
func (o *Optimizer) visible(ix *IndexInfo) bool { return !ix.Def.Hypothetical || o.WhatIfMode }

// predSel is the selectivity of bt's i-th predicate.
func (o *Optimizer) predSel(bt *boundTable, i int) float64 {
	p := &bt.preds[i]
	if p.sel != p.sel { // NaN: not yet estimated
		p.sel = o.selectivity(bt.ref.Table, p.Predicate, p.Col.Column)
	}
	return p.sel
}

// predicates returns bt's predicates not in skip, in written order; nil
// when there are none.
func (bt *boundTable) predicates(skip colSet) []sqlparser.Predicate {
	var out []sqlparser.Predicate
	for i := range bt.preds {
		if !skip.has(i) {
			if out == nil {
				out = make([]sqlparser.Predicate, 0, len(bt.preds)-i)
			}
			out = append(out, bt.preds[i].Predicate)
		}
	}
	return out
}

// covers reports whether ix holds every column the query needs from bt,
// counting the clustered key columns every non-clustered leaf entry
// carries as the row locator (SQL Server semantics).
func (bt *boundTable) covers(ix *IndexInfo) bool {
	if !bt.reads {
		return false
	}
	for w, bits := range bt.needed {
		for ; bits != 0; bits &= bits - 1 {
			o := w*64 + mathbits.TrailingZeros64(bits)
			if !slices.Contains(ix.KeyOrds, o) && !slices.Contains(ix.InclOrds, o) &&
				(bt.info.ClusteredHeight == 0 || !slices.Contains(bt.pkOrds, o)) {
				return false
			}
		}
	}
	return true
}

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

// access is one priced way to read a bound table: the base scan (kind
// SeqScan), a clustered seek (ix nil), or a seek or covering scan of a
// secondary index. Only the cheapest is built into a Node.
type access struct {
	kind NodeKind
	ix   *IndexInfo
	// keys are the key ordinals the seek matched against: ix's, or the
	// primary key's for a clustered seek. eq counts the key columns an
	// equality predicate matched.
	keys       []int
	eq         int
	covering   bool
	rows, cost float64
}

// bestAccess prices every way to read bt and returns the cheapest; a
// later candidate wins only when strictly cheaper.
func (o *Optimizer) bestAccess(bt *boundTable) access {
	best := o.baseScan(bt)
	if bt.info.ClusteredHeight > 0 && len(bt.pkOrds) > 0 {
		// Only a genuine seek adds value; a covering scan of the
		// clustered index is the base scan.
		if a, ok := o.seek(bt, nil, bt.pkOrds, true); ok && a.kind == KindIndexSeek && a.cost < best.cost {
			best = a
		}
	}
	for i := range bt.indexes {
		ix := &bt.indexes[i]
		if ix.Def.Kind == schema.Clustered || !o.visible(ix) {
			continue // the clustered index is the base scan
		}
		if a, ok := o.seek(bt, ix, ix.KeyOrds, bt.covers(ix)); ok && a.cost < best.cost {
			best = a
		}
	}
	return best
}

// baseScan scans the heap or clustered index, applying all predicates as
// residual filters.
func (o *Optimizer) baseScan(bt *boundTable) access {
	rows := float64(bt.info.RowCount)
	clear(bt.used)
	return access{
		kind: KindSeqScan,
		rows: math.Max(o.residualRows(bt, rows), 0),
		cost: float64(bt.info.DataPages) + rows*CPUPerRow,
	}
}

// residualRows is rows filtered by every predicate not in bt.used.
func (o *Optimizer) residualRows(bt *boundTable, rows float64) float64 {
	for i := range bt.preds {
		if !bt.used.has(i) {
			rows *= o.predSel(bt, i)
		}
	}
	return rows
}

// seek prices a seek or covering scan over an index with the given key
// ordinals (ix nil for the clustered index), if useful.
func (o *Optimizer) seek(bt *boundTable, ix *IndexInfo, keys []int, covering bool) (access, bool) {
	height, leaf := bt.info.ClusteredHeight, bt.info.DataPages
	if ix != nil {
		height, leaf = ix.Height, ix.LeafPages
	}
	rows := float64(bt.info.RowCount)
	eq, rng, seekSel := o.match(bt, keys, nil)
	a := access{ix: ix, keys: keys, eq: eq, covering: covering}
	if eq == 0 && rng == 0 {
		// No sargable predicate: only useful as a covering scan narrower
		// than the base table.
		if !covering {
			return access{}, false
		}
		a.kind, a.rows, a.cost = KindIndexScan, o.residualRows(bt, rows), float64(leaf)+rows*CPUPerRow
		return a, true
	}
	seekRows := rows * seekSel
	leafFrac := seekRows / math.Max(rows, 1)
	leafPages := math.Max(1, float64(leaf)*leafFrac)
	a.kind, a.rows = KindIndexSeek, o.residualRows(bt, seekRows)
	a.cost = float64(height) + leafPages + seekRows*CPUPerRow
	if !covering {
		a.cost += seekRows * lookupHeight(bt) * RandomPageFactor
	}
	return a, true
}

// lookupHeight is the page cost of fetching one base row by its locator.
func lookupHeight(bt *boundTable) float64 {
	if bt.info.ClusteredHeight == 0 {
		return 1 // heap RID lookup
	}
	return float64(bt.info.ClusteredHeight)
}

// match partitions bt's predicates over key columns as a storage engine
// seeks: an equality predicate on each key column in turn, then at most
// one lower and one upper bound on the next (SQL Server's storage engine
// can seek multiple equality predicates but only one inequality, §5.2).
// It marks the matched predicates in bt.used and returns how many of each
// matched and their selectivity, the equality factors in key order then
// the bounds in written order. With out set it appends the matched
// predicates to it in the same order.
func (o *Optimizer) match(bt *boundTable, keys []int, out *[]sqlparser.Predicate) (eq, rng int, sel float64) {
	if bt.used == nil {
		bt.used = newColSet(bt.usedBuf[:], len(bt.preds))
	}
	clear(bt.used)
	sel = 1.0
	for _, key := range keys {
		found := -1
		for i := range bt.preds {
			if p := &bt.preds[i]; !bt.used.has(i) && p.ord == key && p.Op.IsEquality() {
				found = i
				break
			}
		}
		if found < 0 {
			break
		}
		sel = o.take(bt, found, sel, out)
		eq++
	}
	if eq < len(keys) {
		var bounded [2]bool // a lower, an upper bound taken
		for i := range bt.preds {
			p := &bt.preds[i]
			if bt.used.has(i) || p.ord != keys[eq] || !p.Op.IsRange() {
				continue
			}
			if dir := rangeDir(p.Op); !bounded[dir] {
				bounded[dir] = true
				sel = o.take(bt, i, sel, out)
				rng++
			}
		}
	}
	return eq, rng, sel
}

// take marks bt's i-th predicate matched, appending it to out when set,
// and returns sel times its selectivity.
func (o *Optimizer) take(bt *boundTable, i int, sel float64, out *[]sqlparser.Predicate) float64 {
	bt.used.add(i)
	if out != nil {
		*out = append(*out, bt.preds[i].Predicate)
	}
	return sel * o.predSel(bt, i)
}

// rangeDir is 1 for a lower bound, 0 for an upper one.
func rangeDir(op sqlparser.CompareOp) int {
	if op == sqlparser.OpGT || op == sqlparser.OpGE {
		return 1
	}
	return 0
}

// node builds the plan node for a, and returns the columns (in any case)
// its output is sorted by, ascending, after any equality-prefix seek.
func (o *Optimizer) node(bt *boundTable, a access) (*Node, []string) {
	n := &Node{Kind: a.kind, Table: bt.ref.Table, Alias: bt.ref.Name(), EstRows: a.rows, EstCost: a.cost}
	keyNames := bt.info.Def.PrimaryKey
	if a.ix != nil {
		n.Index, keyNames = a.ix.Def.Name, a.ix.Def.KeyColumns
	} else if a.kind != KindSeqScan {
		n.Index = clusteredIndexName(bt.ref.Table)
	}
	switch a.kind {
	case KindSeqScan:
		clear(bt.used)
		n.Residual = bt.predicates(bt.used)
		if bt.info.ClusteredHeight == 0 {
			keyNames = nil
		}
		return n, keyNames
	case KindIndexScan:
		n.Residual = bt.predicates(nil)
		return n, keyNames
	}
	var seek []sqlparser.Predicate
	if len(bt.preds) > 0 {
		seek = make([]sqlparser.Predicate, 0, len(bt.preds))
	}
	eq, rng, _ := o.match(bt, a.keys, &seek)
	if eq > 0 {
		n.SeekEq = seek[:eq:eq]
	}
	if rng > 0 {
		n.SeekRange = seek[eq : eq+rng : eq+rng]
	}
	n.Residual = bt.predicates(bt.used)
	n.Lookup = !a.covering
	return n, keyNames[a.eq:]
}

// ---- SELECT planning ----

// over allocates a node above child, the two in one allocation.
func over(n Node, child *Node) *Node {
	x := &struct {
		Node
		kids [1]*Node
	}{Node: n}
	x.kids[0] = child
	x.Children = x.kids[:]
	return &x.Node
}

func (o *Optimizer) planSelect(s *sqlparser.SelectStmt) (*Node, error) {
	b, err := o.bind(s.From, s.Joins)
	if err != nil {
		return nil, err
	}
	// Distribute predicates and collect needed columns.
	for _, p := range s.Where {
		bt, ord, err := b.resolve(p.Col)
		if err != nil {
			return nil, err
		}
		bt.addPred(p, ord, len(s.Where))
		bt.needed.add(ord)
	}
	star := false
	for _, it := range s.Items {
		star = star || it.Star
		if !it.Star && it.Agg != sqlparser.AggCount {
			if err := b.need(it.Col); err != nil {
				return nil, err
			}
		}
	}
	if star {
		for i := range b {
			for ord := range b[i].info.Def.Columns {
				b[i].needed.add(ord)
			}
		}
	}
	type joinCols struct {
		left, right *boundTable
		lord, rord  int
	}
	var joins []joinCols
	for _, j := range s.Joins {
		lbt, lord, err := b.resolve(j.Left)
		if err != nil {
			return nil, err
		}
		rbt, rord, err := b.resolve(j.Right)
		if err != nil {
			return nil, err
		}
		lbt.needed.add(lord)
		rbt.needed.add(rord)
		joins = append(joins, joinCols{lbt, rbt, lord, rord})
	}
	for _, g := range s.GroupBy {
		if err := b.need(g); err != nil {
			return nil, err
		}
	}
	for _, ob := range s.OrderBy {
		if err := b.need(ob.Col); err != nil {
			return nil, err
		}
	}

	// Access path for the first table; joins are applied in written order
	// (left-deep), choosing nested-loops-with-seek when the inner table has
	// a usable index on its join column, hash join otherwise.
	current, ordered := o.node(&b[0], o.bestAccess(&b[0]))
	for _, jc := range joins {
		inner, innerOrd := jc.right, jc.rord
		outerCol := sqlparser.ColRef{Table: jc.left.ref.Name(), Column: jc.left.column(jc.lord)}
		innerCol := sqlparser.ColRef{Table: inner.ref.Name(), Column: inner.column(jc.rord)}
		if jc.right == &b[0] || containsTable(current, jc.right.ref.Name()) {
			// The "right" side is already in the current subtree; swap.
			inner, innerOrd = jc.left, jc.lord
			outerCol, innerCol = innerCol, outerCol
		}
		current = o.planJoin(current, inner, innerOrd, outerCol, innerCol)
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
			if bt, ord, _ := b.resolve(g); bt != nil {
				groups *= o.distinct(bt.ref.Table, bt.column(ord))
			}
		}
		groups = math.Min(groups, math.Max(current.EstRows, 1))
		current = over(Node{
			Kind:    KindHashAgg,
			GroupBy: s.GroupBy,
			Items:   s.Items,
			EstRows: groups,
			EstCost: current.EstCost + current.EstRows*HashBuildPerRow,
		}, current)
		ordered = nil
	} else if hasAgg {
		current = over(Node{
			Kind:    KindScalarAgg,
			Items:   s.Items,
			EstRows: 1,
			EstCost: current.EstCost + current.EstRows*CPUPerRow,
		}, current)
		ordered = nil
	}

	// Ordering.
	if len(s.OrderBy) > 0 && !orderSatisfied(s.OrderBy, ordered) {
		rows := math.Max(current.EstRows, 1)
		sortCost := rows*math.Log2(rows+1)*CPUPerCompare + rows*CPUPerRow
		current = over(Node{
			Kind:    KindSort,
			OrderBy: s.OrderBy,
			EstRows: current.EstRows,
			EstCost: current.EstCost + sortCost,
		}, current)
	}
	if s.Top > 0 {
		rows := math.Min(float64(s.Top), math.Max(current.EstRows, 0))
		current = over(Node{
			Kind:    KindTop,
			TopN:    s.Top,
			EstRows: rows,
			EstCost: current.EstCost + rows*CPUPerRow,
		}, current)
	}
	// Final projection.
	return over(Node{
		Kind:    KindProject,
		Items:   s.Items,
		EstRows: current.EstRows,
		EstCost: current.EstCost + current.EstRows*CPUPerRow,
	}, current), nil
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

// planJoin joins the current subtree (outer) with bound table inner on
// the inner column at innerOrd.
func (o *Optimizer) planJoin(outer *Node, inner *boundTable, innerOrd int, outerCol, innerCol sqlparser.ColRef) *Node {
	innerRows := float64(inner.info.RowCount)
	for i := range inner.preds {
		innerRows *= o.predSel(inner, i)
	}
	d := math.Max(o.distinct(inner.ref.Table, innerCol.Column), 1)
	outRows := outer.EstRows * innerRows / d
	if outRows < 0 {
		outRows = 0
	}
	matchRows := float64(inner.info.RowCount) / d

	// Option 1: nested loops with an index seek on the inner join column:
	// a secondary index led by it, or the clustered index when it is the
	// leading primary-key column. nl.ix is nil for the clustered index.
	var nl access
	found := false
	for i := range inner.indexes {
		ix := &inner.indexes[i]
		if !o.visible(ix) || ix.Def.Kind == schema.Clustered || len(ix.KeyOrds) == 0 || ix.KeyOrds[0] != innerOrd {
			continue
		}
		covering := inner.covers(ix)
		perProbe := float64(ix.Height) + math.Max(1, matchRows/100)
		if !covering {
			perProbe += matchRows * lookupHeight(inner) * RandomPageFactor
		}
		// Residual predicates on the inner table are applied per probe.
		if cost := outer.EstCost + outer.EstRows*perProbe + outer.EstRows*CPUPerRow; !found || cost < nl.cost {
			nl, found = access{ix: ix, covering: covering, rows: perProbe, cost: cost}, true
		}
	}
	if len(inner.pkOrds) > 0 && inner.pkOrds[0] == innerOrd && inner.info.ClusteredHeight > 0 {
		perProbe := float64(inner.info.ClusteredHeight) + math.Max(1, matchRows/100)
		if cost := outer.EstCost + outer.EstRows*perProbe + outer.EstRows*CPUPerRow; !found || cost < nl.cost {
			nl, found = access{covering: true, rows: perProbe, cost: cost}, true
		}
	}

	// Option 2: hash join, building on the inner side's best access path.
	innerBest := o.bestAccess(inner)
	hashCost := outer.EstCost + innerBest.cost + innerBest.rows*HashBuildPerRow + outer.EstRows*CPUPerRow
	join := Node{JoinLeft: outerCol, JoinRight: innerCol, EstRows: outRows}
	var innerNode *Node
	if found && nl.cost < hashCost {
		innerNode = &Node{
			Kind:     KindIndexSeek,
			Table:    inner.ref.Table,
			Alias:    inner.ref.Name(),
			Index:    clusteredIndexName(inner.ref.Table),
			Residual: inner.predicates(nil),
			Lookup:   !nl.covering,
			EstRows:  matchRows,
			EstCost:  nl.rows, // the per-probe cost
		}
		if nl.ix != nil {
			innerNode.Index = nl.ix.Def.Name
		}
		join.Kind, join.EstCost = KindNLJoin, nl.cost
	} else {
		innerNode, _ = o.node(inner, innerBest)
		join.Kind, join.EstCost = KindHashJoin, hashCost
	}
	join.Children = []*Node{outer, innerNode}
	return &join
}

// clusteredIndexName is the synthetic name under which the clustered index
// appears in plans (for usage accounting and plan fingerprints).
func clusteredIndexName(table string) string { return "PK_" + table }

// ClusteredIndexName exposes the naming rule to the engine.
func ClusteredIndexName(table string) string { return clusteredIndexName(table) }

func orderSatisfied(orderBy []sqlparser.OrderItem, ordered []string) bool {
	if len(ordered) < len(orderBy) {
		return false
	}
	for i, ob := range orderBy {
		if ob.Desc {
			return false // executor scans forward only
		}
		if !strings.EqualFold(ob.Col.Column, ordered[i]) {
			return false
		}
	}
	return true
}

// ---- write planning ----

func (o *Optimizer) planInsert(table string, rows float64) (*Node, error) {
	t, ok := o.Cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("optimizer: unknown table %q", table)
	}
	baseH := float64(t.ClusteredHeight)
	if baseH == 0 {
		baseH = 1
	}
	n := o.writeNode(Node{Kind: KindInsert, Table: table, WriteRows: rows, EstCost: rows * baseH}, o.Cat.Indexes(table))
	return &n, nil
}

// planWrite plans an UPDATE or DELETE, n holding its kind, table and SET
// list: the row-identification access, then the write above it.
func (o *Optimizer) planWrite(n Node, where []sqlparser.Predicate) (*Node, error) {
	b, err := o.bind(sqlparser.TableRef{Table: n.Table}, nil)
	if err != nil {
		return nil, err
	}
	bt := &b[0]
	bt.reads = false
	for _, p := range where {
		_, ord, err := b.resolve(p.Col)
		if err != nil {
			return nil, err
		}
		bt.addPred(p, ord, len(where))
	}
	access, _ := o.node(bt, o.bestAccess(bt))
	n.WriteRows, n.EstCost = access.EstRows, access.EstCost+access.EstRows // base row write
	return over(o.writeNode(n, bt.indexes), access), nil
}

// writeNode completes a write node whose EstCost holds the base-row cost:
// it adds the secondary indexes the write maintains — every visible one,
// or for an UPDATE those holding a SET column — each charged per row at
// its height (twice for an UPDATE: delete and insert of the entry), and
// the per-row CPU of the base row and every maintained entry.
func (o *Optimizer) writeNode(n Node, ixs []IndexInfo) Node {
	perEntry := 1.0
	if n.Kind == KindUpdate {
		perEntry = 2
	}
	for i := range ixs {
		ix := &ixs[i]
		if !o.visible(ix) || ix.Def.Kind == schema.Clustered || (n.Kind == KindUpdate && !setsColumnOf(n.Set, ix.Def)) {
			continue
		}
		if n.MaintIndexes == nil {
			n.MaintIndexes = make([]string, 0, len(ixs)-i)
		}
		n.MaintIndexes = append(n.MaintIndexes, ix.Def.Name)
		n.EstCost += n.WriteRows * perEntry * float64(ix.Height) // random page touches per entry
	}
	n.EstCost += n.WriteRows * CPUPerRow * float64(1+len(n.MaintIndexes))
	return n
}

// setsColumnOf reports whether an assignment writes a column def holds.
func setsColumnOf(set []sqlparser.Assignment, def schema.IndexDef) bool {
	for _, a := range set {
		if def.HasColumn(a.Column) {
			return true
		}
	}
	return false
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
