package engine

import (
	"fmt"
	"strings"

	"autoindex/internal/executor"
	"autoindex/internal/optimizer"
	"autoindex/internal/sqlparser"
	"autoindex/internal/value"
)

// compile turns a plan subtree into an executable source with its output
// layout. keep says whether the consumer keeps the rows it is handed, as
// Sort, a hash join's build side and a collecting caller do. A source
// whose consumer does not keep may hand out a row it reuses (see the
// executor package doc); for one that keeps, such a source's rows are
// copied through keptRows.
func (d *Database) compile(n *optimizer.Node, meter *executor.Meter, keep bool) (executor.Source, *layout, error) {
	switch n.Kind {
	case optimizer.KindSeqScan, optimizer.KindIndexScan, optimizer.KindIndexSeek:
		src, lay, err := d.compileAccess(n, meter)
		if err != nil {
			return nil, nil, err
		}
		if keep && src.entries != nil && src.entries.scratch != nil {
			return keptRows{src}, lay, nil
		}
		return src, lay, nil
	case optimizer.KindNLJoin, optimizer.KindHashJoin:
		src, lay, err := d.compileJoin(n, meter)
		if err == nil && keep {
			src = keptRows{src}
		}
		return src, lay, err
	case optimizer.KindHashAgg, optimizer.KindScalarAgg:
		return d.compileAgg(n, meter)
	case optimizer.KindSort:
		return d.compileSort(n, meter)
	case optimizer.KindTop:
		src, lay, err := d.compile(n.Children[0], meter, keep)
		if err != nil {
			return nil, nil, err
		}
		return &executor.Top{Child: src, N: n.TopN}, lay, nil
	case optimizer.KindProject:
		return d.compileProject(n, meter, keep)
	default:
		return nil, nil, fmt.Errorf("engine: cannot compile %v", n.Kind)
	}
}

// keptRows copies each row of a source that reuses one row for all it
// hands out (a covering access, a join), for a consumer that keeps them.
type keptRows struct{ executor.Source }

// Next implements executor.Source.
func (k keptRows) Next() (value.Row, bool) {
	r, ok := k.Source.Next()
	if !ok {
		return nil, false
	}
	return r.Clone(), true
}

// compileJoin builds a hash or nested-loops join. Neither keeps its probe
// or outer rows; a hash join keeps its build rows.
func (d *Database) compileJoin(n *optimizer.Node, meter *executor.Meter) (executor.Source, *layout, error) {
	outerSrc, outerLay, err := d.compile(n.Children[0], meter, false)
	if err != nil {
		return nil, nil, err
	}
	inner := n.Children[1]
	outerIdx := outerLay.find(n.JoinLeft.Table, n.JoinLeft.Column)
	if outerIdx < 0 {
		return nil, nil, fmt.Errorf("engine: join column %s not in outer layout", n.JoinLeft)
	}
	if n.Kind == optimizer.KindHashJoin {
		buildSrc, buildLay, err := d.compile(inner, meter, true)
		if err != nil {
			return nil, nil, err
		}
		buildIdx := buildLay.find(n.JoinRight.Table, n.JoinRight.Column)
		if buildIdx < 0 {
			return nil, nil, fmt.Errorf("engine: join column %s not in build layout", n.JoinRight)
		}
		join := &executor.HashJoin{Probe: outerSrc, Build: buildSrc, ProbeCol: outerIdx, BuildCol: buildIdx, Meter: meter}
		return join, concatLayouts(outerLay, buildLay), nil
	}
	// Determine the inner layout once with a probe compilation.
	probeNode := innerSeekNode(inner, n.JoinRight, value.NewNull())
	_, innerLay, err := d.compile(probeNode, &executor.Meter{}, false)
	if err != nil {
		return nil, nil, err
	}
	bind := func(key value.Value) executor.Source {
		node := innerSeekNode(inner, n.JoinRight, key)
		src, _, err := d.compile(node, meter, false)
		if err != nil {
			return &executor.SliceSource{}
		}
		return src
	}
	join := &executor.NLJoin{Outer: outerSrc, OuterCol: outerIdx, Bind: bind, Meter: meter}
	return join, concatLayouts(outerLay, innerLay), nil
}

// innerSeekNode builds the per-probe seek node for an NL-join inner.
func innerSeekNode(inner *optimizer.Node, joinCol sqlparser.ColRef, key value.Value) *optimizer.Node {
	eq := sqlparser.Predicate{
		Col: sqlparser.ColRef{Table: inner.Alias, Column: joinCol.Column},
		Op:  sqlparser.OpEQ,
		Val: key,
	}
	return &optimizer.Node{
		Kind:     optimizer.KindIndexSeek,
		Table:    inner.Table,
		Alias:    inner.Alias,
		Index:    inner.Index,
		SeekEq:   []sqlparser.Predicate{eq},
		Residual: inner.Residual,
		Lookup:   inner.Lookup,
	}
}

func aggKind(f sqlparser.AggFunc) executor.AggKind {
	switch f {
	case sqlparser.AggCount:
		return executor.AggCountStar
	case sqlparser.AggCountCol:
		return executor.AggCountCol
	case sqlparser.AggSum:
		return executor.AggSum
	case sqlparser.AggAvg:
		return executor.AggAvg
	case sqlparser.AggMin:
		return executor.AggMin
	case sqlparser.AggMax:
		return executor.AggMax
	default:
		return executor.AggKey
	}
}

func (d *Database) compileAgg(n *optimizer.Node, meter *executor.Meter) (executor.Source, *layout, error) {
	src, childLay, err := d.compile(n.Children[0], meter, false)
	if err != nil {
		return nil, nil, err
	}
	var groupCols []int
	for _, g := range n.GroupBy {
		idx := childLay.find(g.Table, g.Column)
		if idx < 0 {
			return nil, nil, fmt.Errorf("engine: group-by column %s not found", g)
		}
		groupCols = append(groupCols, idx)
	}
	outLay := &layout{}
	var specs []executor.AggSpec
	for _, it := range n.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("engine: SELECT * cannot be combined with aggregation")
		}
		if it.Agg == sqlparser.AggNone {
			// Must be a grouping column; emit its key position.
			idx := childLay.find(it.Col.Table, it.Col.Column)
			if idx < 0 {
				return nil, nil, fmt.Errorf("engine: column %s not found", it.Col)
			}
			// Align the AggKey with the matching group column.
			pos := -1
			for gi, gc := range groupCols {
				if gc == idx {
					pos = gi
					break
				}
			}
			if pos < 0 {
				return nil, nil, fmt.Errorf("engine: column %s not in GROUP BY", it.Col)
			}
			specs = append(specs, executor.AggSpec{Kind: executor.AggKey, Col: pos})
			outLay.cols = append(outLay.cols, layoutCol{alias: strings.ToLower(it.Col.Table), name: strings.ToLower(it.Col.Column)})
			continue
		}
		colIdx := 0
		if it.Agg != sqlparser.AggCount {
			colIdx = childLay.find(it.Col.Table, it.Col.Column)
			if colIdx < 0 {
				return nil, nil, fmt.Errorf("engine: aggregate column %s not found", it.Col)
			}
		}
		specs = append(specs, executor.AggSpec{Kind: aggKind(it.Agg), Col: colIdx})
		outLay.cols = append(outLay.cols, layoutCol{name: strings.ToLower(it.SQL())})
	}
	agg := &executor.HashAgg{Child: src, GroupCols: groupCols, Specs: specs, Meter: meter}
	return agg, outLay, nil
}

func (d *Database) compileSort(n *optimizer.Node, meter *executor.Meter) (executor.Source, *layout, error) {
	src, lay, err := d.compile(n.Children[0], meter, true)
	if err != nil {
		return nil, nil, err
	}
	type ord struct {
		idx  int
		desc bool
	}
	var ords []ord
	for _, ob := range n.OrderBy {
		idx := lay.find(ob.Col.Table, ob.Col.Column)
		if idx < 0 {
			// After aggregation the column may be addressable by rendered
			// name (e.g. ORDER BY an aggregate is unsupported; plain columns
			// keep their names).
			return nil, nil, fmt.Errorf("engine: order-by column %s not found", ob.Col)
		}
		ords = append(ords, ord{idx: idx, desc: ob.Desc})
	}
	less := func(a, b value.Row) bool {
		for _, o := range ords {
			c := value.Compare(a[o.idx], b[o.idx])
			if c == 0 {
				continue
			}
			if o.desc {
				return c > 0
			}
			return c < 0
		}
		return false
	}
	return &executor.Sort{Child: src, Less: less, Meter: meter}, lay, nil
}

// starColumns expands SELECT * under n: each FROM table's declared
// columns in FROM order — the access nodes left to right — each found by
// name in lay, whatever order the access path laid them out in (a
// covering entry holds its keys, includes, then the locator).
func (d *Database) starColumns(n *optimizer.Node, lay *layout, idxs []int, out *layout) ([]int, error) {
	if len(n.Children) > 0 {
		var err error
		for _, c := range n.Children {
			if idxs, err = d.starColumns(c, lay, idxs, out); err != nil {
				return nil, err
			}
		}
		return idxs, nil
	}
	t := d.tables[strings.ToLower(n.Table)]
	if t == nil {
		return nil, fmt.Errorf("engine: unknown table %q", n.Table)
	}
	// A table layout holds the columns where the output puts them, so
	// that guess is tried before a search.
	alias, start := strings.ToLower(n.Alias), len(idxs)
	for k, c := range t.def.Columns {
		i := start + k
		if i >= len(lay.cols) || lay.cols[i].alias != alias || !strings.EqualFold(lay.cols[i].name, c.Name) {
			if i = lay.find(alias, c.Name); i < 0 {
				return nil, fmt.Errorf("engine: column %s.%s not in row layout", n.Alias, c.Name)
			}
		}
		idxs = append(idxs, i)
		out.cols = append(out.cols, lay.cols[i])
	}
	return idxs, nil
}

// compileProject builds the projection. For a consumer that keeps its
// rows each is a new row; otherwise every row is written into one buffer.
func (d *Database) compileProject(n *optimizer.Node, meter *executor.Meter, keep bool) (executor.Source, *layout, error) {
	src, childLay, err := d.compile(n.Children[0], meter, false)
	if err != nil {
		return nil, nil, err
	}
	outLay := &layout{}
	var idxs []int
	for _, it := range n.Items {
		switch {
		case it.Star:
			if idxs, err = d.starColumns(n.Children[0], childLay, idxs, outLay); err != nil {
				return nil, nil, err
			}
		case it.Agg != sqlparser.AggNone:
			idx := childLay.find("", it.SQL())
			if idx < 0 {
				return nil, nil, fmt.Errorf("engine: projected aggregate %s not found", it.SQL())
			}
			idxs = append(idxs, idx)
			outLay.cols = append(outLay.cols, childLay.cols[idx])
		default:
			idx := childLay.find(it.Col.Table, it.Col.Column)
			if idx < 0 {
				return nil, nil, fmt.Errorf("engine: projected column %s not found", it.Col)
			}
			idxs = append(idxs, idx)
			outLay.cols = append(outLay.cols, childLay.cols[idx])
		}
	}
	fn := func(r value.Row) value.Row {
		out := make(value.Row, len(idxs))
		for i, idx := range idxs {
			out[i] = r[idx]
		}
		return out
	}
	if !keep {
		out := make(value.Row, len(idxs))
		fn = func(r value.Row) value.Row {
			for i, idx := range idxs {
				out[i] = r[idx]
			}
			return out
		}
	}
	return &executor.Project{Child: src, Fn: fn, Meter: meter}, outLay, nil
}
