package workload

import (
	"fmt"
	"sort"
	"strings"

	"autoindex/internal/engine"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/sqlparser"
	"autoindex/internal/value"
)

// parseBulk constructs a BULK INSERT statement with an explicit row count.
func parseBulk(sql string, rows int64) (sqlparser.Statement, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	b, ok := stmt.(*sqlparser.BulkInsertStmt)
	if !ok {
		return nil, fmt.Errorf("workload: %q is not a BULK INSERT", sql)
	}
	b.RowEstimate = rows
	return b, nil
}

// pool holds sampled literal values per table column, used to parameterize
// predicates so they hit real data with realistic skew.
type pool struct {
	byCol map[string][]value.Value
	rows  []value.Row
}

// buildPools samples values from the seed rows.
func (t *Tenant) buildPools() map[string]*pool {
	pools := make(map[string]*pool)
	r := t.rng.Child("pools")
	for _, ts := range t.Tables {
		p := &pool{byCol: make(map[string][]value.Value)}
		rows := generateRows(ts, minInt(256, ts.Rows), r.Child(ts.Name))
		p.rows = rows
		for ci, c := range ts.Columns {
			vals := make([]value.Value, 0, len(rows))
			for _, row := range rows {
				vals = append(vals, row[ci])
			}
			p.byCol[strings.ToLower(c.Name)] = vals
		}
		// PK ids must hit the real id range [0, Rows).
		ids := make([]value.Value, 128)
		for i := range ids {
			ids[i] = value.NewInt(r.Int63n(int64(ts.Rows)))
		}
		p.byCol["id"] = ids
		pools[strings.ToLower(ts.Name)] = p
	}
	return pools
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (p *pool) draw(r *sim.RNG, col string) value.Value {
	vals := p.byCol[strings.ToLower(col)]
	if len(vals) == 0 {
		return value.NewInt(0)
	}
	return vals[r.Intn(len(vals))]
}

// filterableColumns returns columns that make sensible predicates.
func filterableColumns(ts TableSpec) []ColumnSpec {
	var out []ColumnSpec
	for _, c := range ts.Columns {
		if c.Wide || c.Name == "id" || c.Kind == value.Float {
			continue
		}
		out = append(out, c)
	}
	return out
}

// projectableColumns returns narrow columns to project.
func projectableColumns(ts TableSpec) []string {
	var out []string
	for _, c := range ts.Columns {
		if !c.Wide {
			out = append(out, c.Name)
		}
	}
	return out
}

// generateTemplates builds the tenant's statement mix.
func (t *Tenant) generateTemplates() {
	r := t.rng.Child("templates")
	pools := t.buildPools()
	wf := t.Profile.WriteFraction
	if wf == 0 {
		wf = 0.08 + 0.35*r.Float64()
	}

	var reads, writes []*Template
	for _, ts := range t.Tables {
		ts := ts
		p := pools[strings.ToLower(ts.Name)]
		fcols := filterableColumns(ts)
		pcols := projectableColumns(ts)
		if len(pcols) == 0 || len(fcols) == 0 {
			continue
		}
		proj := func(n int) string {
			idx := r.Perm(len(pcols))
			if n > len(idx) {
				n = len(idx)
			}
			cols := make([]string, n)
			for i := 0; i < n; i++ {
				cols[i] = pcols[idx[i]]
			}
			return strings.Join(cols, ", ")
		}

		// Point lookup by PK.
		if ts.HasPK {
			projCols := proj(1 + r.Intn(3))
			reads = append(reads, &Template{
				Name:   ts.Name + "/point",
				Weight: 2 + 4*r.Float64(),
				Gen: func(tn *Tenant) string {
					return fmt.Sprintf("SELECT %s FROM %s WHERE id = %s", projCols, ts.Name, p.draw(tn.rng, "id"))
				},
			})
		}

		// Equality filter on 1–2 attributes.
		for k := 0; k < 1+r.Intn(2); k++ {
			c1 := fcols[r.Intn(len(fcols))]
			projCols := proj(1 + r.Intn(3))
			var c2 *ColumnSpec
			if len(fcols) > 1 && r.Float64() < 0.4 {
				cc := fcols[r.Intn(len(fcols))]
				if !strings.EqualFold(cc.Name, c1.Name) {
					c2 = &cc
				}
			}
			reads = append(reads, &Template{
				Name:   fmt.Sprintf("%s/eq_%s", ts.Name, c1.Name),
				Weight: 1 + 4*r.Float64(),
				Gen: func(tn *Tenant) string {
					q := fmt.Sprintf("SELECT %s FROM %s WHERE %s = %s", projCols, ts.Name, c1.Name, p.draw(tn.rng, c1.Name))
					if c2 != nil {
						q += fmt.Sprintf(" AND %s = %s", c2.Name, p.draw(tn.rng, c2.Name))
					}
					return q
				},
			})
		}

		// Correlated predicate pair (optimizer-error generator).
		for _, c := range ts.Columns {
			if c.CorrelatedWith == "" {
				continue
			}
			c := c
			base := c.CorrelatedWith
			projCols := proj(2)
			baseOrd, corrOrd := -1, -1
			for i, cc := range ts.Columns {
				if strings.EqualFold(cc.Name, base) {
					baseOrd = i
				}
				if strings.EqualFold(cc.Name, c.Name) {
					corrOrd = i
				}
			}
			reads = append(reads, &Template{
				Name:   fmt.Sprintf("%s/corr_%s", ts.Name, c.Name),
				Weight: 1 + 2*r.Float64(),
				Gen: func(tn *Tenant) string {
					row := p.rows[tn.rng.Intn(len(p.rows))]
					return fmt.Sprintf("SELECT %s FROM %s WHERE %s = %s AND %s = %s",
						projCols, ts.Name, base, row[baseOrd], c.Name, row[corrOrd])
				},
			})
		}

		// Range scan on an int attribute.
		var intCol *ColumnSpec
		for _, c := range fcols {
			if c.Kind == value.Int {
				cc := c
				intCol = &cc
				break
			}
		}
		if intCol != nil {
			c := *intCol
			projCols := proj(1 + r.Intn(2))
			width := int64(c.Distinct/10 + 1)
			reads = append(reads, &Template{
				Name:   fmt.Sprintf("%s/range_%s", ts.Name, c.Name),
				Weight: 0.5 + 2*r.Float64(),
				Gen: func(tn *Tenant) string {
					lo := p.draw(tn.rng, c.Name)
					return fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %d AND %d",
						projCols, ts.Name, c.Name, lo.I, lo.I+width)
				},
			})
		}

		// Join to the FK parent.
		if ts.FKOf != "" {
			parent := ts.FKOf
			pp := pools[strings.ToLower(parent)]
			var parentFilter ColumnSpec
			for _, pts := range t.Tables {
				if strings.EqualFold(pts.Name, parent) {
					pf := filterableColumns(pts)
					if len(pf) > 0 {
						parentFilter = pf[r.Intn(len(pf))]
					}
				}
			}
			// Qualify child projections: both sides may share column names.
			idx := r.Perm(len(pcols))
			np := minInt(2, len(idx))
			qualified := make([]string, np)
			for i := 0; i < np; i++ {
				qualified[i] = "c." + pcols[idx[i]]
			}
			childCols := strings.Join(qualified, ", ")
			fkCol := "fk_" + parent
			if parentFilter.Name != "" {
				reads = append(reads, &Template{
					Name:   fmt.Sprintf("%s/join_%s", ts.Name, parent),
					Weight: 0.5 + 2.5*r.Float64(),
					Gen: func(tn *Tenant) string {
						return fmt.Sprintf("SELECT %s FROM %s c JOIN %s p ON c.%s = p.id WHERE p.%s = %s",
							childCols, ts.Name, parent, fkCol, parentFilter.Name, pp.draw(tn.rng, parentFilter.Name))
					},
				})
			}
		}

		// Two-join chain when the parent itself has a parent.
		if ts.FKOf != "" {
			var grand string
			for _, pts := range t.Tables {
				if strings.EqualFold(pts.Name, ts.FKOf) && pts.FKOf != "" {
					grand = pts.FKOf
				}
			}
			if grand != "" && r.Float64() < 0.5 {
				gp := pools[strings.ToLower(grand)]
				parent := ts.FKOf
				reads = append(reads, &Template{
					Name:   fmt.Sprintf("%s/chain_%s_%s", ts.Name, parent, grand),
					Weight: 0.3 + r.Float64(),
					Gen: func(tn *Tenant) string {
						return fmt.Sprintf(
							"SELECT c.id FROM %s c JOIN %s p ON c.fk_%s = p.id JOIN %s g ON p.fk_%s = g.id WHERE g.id = %s",
							ts.Name, parent, parent, grand, grand, gp.draw(tn.rng, "id"))
					},
				})
			}
		}

		// Group-by aggregate.
		if len(fcols) > 0 {
			g := fcols[r.Intn(len(fcols))]
			var measure string
			for _, c := range ts.Columns {
				if c.Kind == value.Float {
					measure = c.Name
					break
				}
			}
			agg := "COUNT(*)"
			if measure != "" && r.Float64() < 0.6 {
				agg = fmt.Sprintf("COUNT(*), SUM(%s)", measure)
			}
			reads = append(reads, &Template{
				Name:   fmt.Sprintf("%s/groupby_%s", ts.Name, g.Name),
				Weight: 0.3 + 1.2*r.Float64(),
				Gen: func(tn *Tenant) string {
					return fmt.Sprintf("SELECT %s, %s FROM %s GROUP BY %s", g.Name, agg, ts.Name, g.Name)
				},
			})
		}

		// TOP-N ordered report.
		if ts.HasPK && r.Float64() < 0.7 {
			c := fcols[r.Intn(len(fcols))]
			projCols := proj(2)
			n := 5 + r.Intn(45)
			reads = append(reads, &Template{
				Name:   fmt.Sprintf("%s/top_%s", ts.Name, c.Name),
				Weight: 0.3 + r.Float64(),
				Gen: func(tn *Tenant) string {
					return fmt.Sprintf("SELECT TOP %d %s FROM %s WHERE %s = %s ORDER BY id",
						n, projCols, ts.Name, c.Name, p.draw(tn.rng, c.Name))
				},
			})
		}

		// Writes: update by filter or PK.
		var floatCol string
		for _, c := range ts.Columns {
			if c.Kind == value.Float {
				floatCol = c.Name
				break
			}
		}
		if floatCol != "" {
			fc := fcols[r.Intn(len(fcols))]
			byPK := ts.HasPK && r.Float64() < 0.5
			writes = append(writes, &Template{
				Name:    ts.Name + "/update",
				Weight:  1 + 2*r.Float64(),
				IsWrite: true,
				Gen: func(tn *Tenant) string {
					set := fmt.Sprintf("%s = %d.25", floatCol, tn.rng.Intn(1000))
					if byPK {
						return fmt.Sprintf("UPDATE %s SET %s WHERE id = %s", ts.Name, set, p.draw(tn.rng, "id"))
					}
					return fmt.Sprintf("UPDATE %s SET %s WHERE %s = %s", ts.Name, set, fc.Name, p.draw(tn.rng, fc.Name))
				},
			})
		}

		// Inserts (with matching occasional deletes of inserted rows).
		if ts.HasPK {
			cols := make([]string, 0, len(ts.Columns))
			for _, c := range ts.Columns {
				cols = append(cols, c.Name)
			}
			spec := ts
			head := fmt.Sprintf("INSERT INTO %s (%s) VALUES (", spec.Name, strings.Join(cols, ", "))
			writes = append(writes, &Template{
				Name:    ts.Name + "/insert",
				Weight:  1 + 2*r.Float64(),
				IsWrite: true,
				Gen: func(tn *Tenant) string {
					return head + value.NewInt(tn.nextInsertID(spec.Name)).String() + tn.insertTail(spec)
				},
			})
			writes = append(writes, &Template{
				Name:    ts.Name + "/delete",
				Weight:  0.2 + 0.6*r.Float64(),
				IsWrite: true,
				Gen: func(tn *Tenant) string {
					// Delete one of the recently inserted rows (possibly a
					// no-op if it never existed — realistic enough).
					id := tn.lastInsertID(spec.Name)
					if id > 1<<40 {
						id -= int64(tn.rng.Intn(3))
					}
					return fmt.Sprintf("DELETE FROM %s WHERE id = %d", ts.Name, id)
				},
			})
		}

		// Occasional bulk load.
		if r.Float64() < 0.3 {
			feed := "feed_" + ts.Name
			n := 50 + r.Intn(200)
			writes = append(writes, &Template{
				Name:    ts.Name + "/bulk",
				Weight:  0.1 + 0.2*r.Float64(),
				IsWrite: true,
				Gen: func(_ *Tenant) string {
					_ = n
					return fmt.Sprintf("BULK INSERT %s FROM DATASOURCE %s", ts.Name, feed)
				},
			})
		}
	}

	// Normalise weights so writes get wf of the total.
	scaleGroup(reads, 1-wf)
	scaleGroup(writes, wf)
	t.Templates = append(t.Templates, reads...)
	t.Templates = append(t.Templates, writes...)
}

func scaleGroup(ts []*Template, target float64) {
	var sum float64
	for _, t := range ts {
		sum += t.Weight
	}
	if sum == 0 {
		return
	}
	for _, t := range ts {
		t.Weight = t.Weight / sum * target
	}
}

// createUserIndexes emulates prior human tuning: the user indexed the
// columns their most frequent filters touch — usually key-only indexes
// without INCLUDE columns, which is decent but beatable tuning (§7.3's
// User baseline drops and restores these).
func (t *Tenant) createUserIndexes() error {
	r := t.rng.Child("userindexes")
	made := make(map[string]bool)
	n := 0
	for _, tpl := range t.Templates {
		if tpl.IsWrite || n >= 3+len(t.Tables) {
			continue
		}
		// Parse a sample to find the filtered table/column.
		stmt, err := sqlparser.Parse(tpl.Gen(t))
		if err != nil {
			continue
		}
		sel, ok := stmt.(*sqlparser.SelectStmt)
		if !ok || len(sel.Where) == 0 {
			continue
		}
		col := sel.Where[0].Col.Column
		table := sel.From.Table
		if strings.EqualFold(col, "id") {
			continue
		}
		// Users skip some opportunities.
		if r.Float64() < 0.3 {
			continue
		}
		name := fmt.Sprintf("ix_user_%s_%s", table, col)
		if made[name] {
			continue
		}
		def := schema.IndexDef{Name: name, Table: table, KeyColumns: []string{col}}
		// Occasionally the user made a covering index.
		if r.Float64() < 0.25 {
			for _, it := range sel.Items {
				if !it.Star && it.Agg == sqlparser.AggNone && !strings.EqualFold(it.Col.Column, col) {
					def.IncludedColumns = append(def.IncludedColumns, it.Col.Column)
				}
			}
		}
		if err := t.DB.CreateIndex(def, engine.IndexBuildOptions{Online: true}); err != nil {
			continue
		}
		made[name] = true
		n++
	}
	// Some users also leave duplicate indexes behind (§5.4). Duplicate
	// the first index by name — picking one out of map iteration would
	// make the schema itself vary run to run.
	if r.Float64() < 0.3 && len(made) > 0 {
		names := make([]string, 0, len(made))
		for name := range made {
			names = append(names, name)
		}
		sort.Strings(names)
		dup, _ := t.DB.IndexDef(names[0])
		dup.Name = names[0] + "_dup"
		dup.IncludedColumns = nil
		_ = t.DB.CreateIndex(dup, engine.IndexBuildOptions{Online: true})
	}
	return nil
}
