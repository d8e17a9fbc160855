package dta

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"autoindex/internal/core"
	"autoindex/internal/dmv"
	"autoindex/internal/engine"
	"autoindex/internal/optimizer"
	"autoindex/internal/schema"
	"autoindex/internal/sqlparser"
)

// tableAnalysis collects the index-relevant columns one statement touches
// on one table (DTA's candidate selection inputs [22]: sargable
// predicates, joins, group-by and order-by columns).
type tableAnalysis struct {
	table     string
	eqCols    []string
	rangeCols []string
	joinCols  []string
	groupBy   []string
	orderBy   []string
	projected []string
}

func (a *tableAnalysis) add(list *[]string, col string) {
	for _, c := range *list {
		if strings.EqualFold(c, col) {
			return
		}
	}
	*list = append(*list, col)
}

// analyzeStatement maps a statement's column usage per table.
func analyzeStatement(db *engine.Database, stmt sqlparser.Statement) map[string]*tableAnalysis {
	out := make(map[string]*tableAnalysis)
	get := func(table string) *tableAnalysis {
		k := strings.ToLower(table)
		a := out[k]
		if a == nil {
			a = &tableAnalysis{table: table}
			out[k] = a
		}
		return a
	}
	resolveTable := func(aliases map[string]string, ref sqlparser.ColRef, tables []string) string {
		if ref.Table != "" {
			if t, ok := aliases[strings.ToLower(ref.Table)]; ok {
				return t
			}
			return ref.Table
		}
		for _, t := range tables {
			if ti, ok := db.Table(t); ok && ti.Def.ColumnIndex(ref.Column) >= 0 {
				return t
			}
		}
		return ""
	}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		aliases := map[string]string{strings.ToLower(s.From.Name()): s.From.Table}
		tables := []string{s.From.Table}
		for _, j := range s.Joins {
			aliases[strings.ToLower(j.Table.Name())] = j.Table.Table
			tables = append(tables, j.Table.Table)
		}
		for _, p := range s.Where {
			t := resolveTable(aliases, p.Col, tables)
			if t == "" {
				continue
			}
			a := get(t)
			if p.Op.IsEquality() {
				a.add(&a.eqCols, p.Col.Column)
			} else if p.Op.IsRange() {
				a.add(&a.rangeCols, p.Col.Column)
			}
		}
		for _, j := range s.Joins {
			if t := resolveTable(aliases, j.Left, tables); t != "" {
				a := get(t)
				a.add(&a.joinCols, j.Left.Column)
			}
			if t := resolveTable(aliases, j.Right, tables); t != "" {
				a := get(t)
				a.add(&a.joinCols, j.Right.Column)
			}
		}
		for _, g := range s.GroupBy {
			if t := resolveTable(aliases, g, tables); t != "" {
				a := get(t)
				a.add(&a.groupBy, g.Column)
			}
		}
		for _, o := range s.OrderBy {
			if t := resolveTable(aliases, o.Col, tables); t != "" {
				a := get(t)
				a.add(&a.orderBy, o.Col.Column)
			}
		}
		for _, it := range s.Items {
			if it.Star {
				continue
			}
			if it.Agg == sqlparser.AggCount {
				continue
			}
			if t := resolveTable(aliases, it.Col, tables); t != "" {
				a := get(t)
				a.add(&a.projected, it.Col.Column)
			}
		}
	case *sqlparser.UpdateStmt:
		a := get(s.Table)
		for _, p := range s.Where {
			if p.Op.IsEquality() {
				a.add(&a.eqCols, p.Col.Column)
			} else if p.Op.IsRange() {
				a.add(&a.rangeCols, p.Col.Column)
			}
		}
	case *sqlparser.DeleteStmt:
		a := get(s.Table)
		for _, p := range s.Where {
			if p.Op.IsEquality() {
				a.add(&a.eqCols, p.Col.Column)
			} else if p.Op.IsRange() {
				a.add(&a.rangeCols, p.Col.Column)
			}
		}
	}
	return out
}

// candidateDefs derives the candidate index shapes for one statement
// from its column-usage analysis. Pure analysis: it never touches the
// what-if session, so all sampled statistics can be built before any
// candidate is costed.
func candidateDefs(db *engine.Database, stmt sqlparser.Statement, opts Options) []schema.IndexDef {
	analyses := analyzeStatement(db, stmt)
	// Visit tables in sorted order: candidate order decides which shapes
	// are costed before the session's what-if budget runs out, so map
	// iteration here would make recommendations vary run to run.
	tables := make([]string, 0, len(analyses))
	for k := range analyses {
		tables = append(tables, k)
	}
	sort.Strings(tables)
	var defs []schema.IndexDef
	for _, k := range tables {
		a := analyses[k]
		t, ok := db.Table(a.table)
		if !ok {
			continue
		}
		defs = append(defs, candidateShapes(t, a, opts)...)
	}
	return defs
}

// screenCandidates prices one statement under the base configuration and
// then under each candidate shape added alone, and keeps the shapes that
// reduce this statement's estimated cost and actually appear in its plan.
func screenCandidates(db *engine.Database, ts tunedStatement, defs []schema.IndexDef, session *engine.WhatIfSession) []core.Candidate {
	if len(defs) == 0 {
		return nil
	}
	base, _, err := session.CostQuery(ts.hash, ts.stmt)
	if err != nil {
		return nil
	}
	var out []core.Candidate
	for _, def := range defs {
		session.Catalog().AddHypothetical(def)
		cost, plan, err := session.CostQuery(ts.hash, ts.stmt)
		session.Catalog().RemoveHypothetical(def.Name)
		if err != nil {
			// The statement priced a moment ago, so this is the call budget
			// (engine.ErrWhatIfBudget): later shapes are never priced.
			break
		}
		improvement := base - cost
		if improvement <= base*0.01 || improvement <= 0 {
			continue
		}
		used := false
		for _, ix := range plan.IndexesUsed {
			if strings.EqualFold(ix, def.Name) {
				used = true
				break
			}
		}
		if !used {
			continue
		}
		t, _ := db.Table(def.Table)
		size := def.EstimatedSizeBytes(t.Def, t.RowCount)
		out = append(out, core.Candidate{
			Def:               def,
			EstImprovement:    improvement,
			EstImprovementPct: improvement / math.Max(base, 1e-9) * 100,
			EstSizeBytes:      size,
			Source:            core.SourceDTA,
			Features: []float64{
				improvement / math.Max(base, 1e-9),
				math.Log1p(float64(t.RowCount)),
				math.Log1p(float64(size)),
				float64(len(def.KeyColumns)),
			},
		})
	}
	return out
}

// candidateShapes proposes index definitions for one table's usage in one
// statement: the sargable-predicate candidate (covering and key-only
// variants), a join-column candidate, a group-by candidate and a
// sort-avoidance (order-by) candidate.
func candidateShapes(t optimizer.TableInfo, a *tableAnalysis, _ Options) []schema.IndexDef {
	var defs []schema.IndexDef
	tableName := t.Def.Name
	addDef := func(keys, include []string) {
		if len(keys) == 0 {
			return
		}
		// Keys must be real, non-duplicate columns.
		seen := make(map[string]bool)
		var ks []string
		for _, k := range keys {
			lk := strings.ToLower(k)
			if seen[lk] || t.Def.ColumnIndex(k) < 0 {
				continue
			}
			seen[lk] = true
			ks = append(ks, k)
		}
		if len(ks) == 0 {
			return
		}
		var inc []string
		for _, c := range include {
			lc := strings.ToLower(c)
			if seen[lc] || t.Def.ColumnIndex(c) < 0 {
				continue
			}
			seen[lc] = true
			inc = append(inc, c)
		}
		sort.Strings(inc)
		def := schema.IndexDef{
			Name:            dtaIndexName(tableName, ks, inc),
			Table:           tableName,
			KeyColumns:      ks,
			IncludedColumns: inc,
			AutoCreated:     true,
		}
		for _, d := range defs {
			if d.Signature() == def.Signature() {
				return
			}
		}
		defs = append(defs, def)
	}

	// Sargable predicates: equality keys + one range key.
	sargKeys := append([]string(nil), a.eqCols...)
	if len(a.rangeCols) > 0 {
		sargKeys = append(sargKeys, a.rangeCols[0])
	}
	if len(sargKeys) > 0 {
		addDef(sargKeys, nil)                                                          // key-only
		addDef(sargKeys, mergeCols(a.projected, a.rangeCols[min1(len(a.rangeCols)):])) // covering
	}
	// Join columns as leading keys.
	for _, jc := range a.joinCols {
		addDef([]string{jc}, a.projected)
		if len(a.eqCols) > 0 {
			addDef(append([]string{jc}, a.eqCols...), a.projected)
		}
	}
	// Group-by keys (covering scan enables streaming/narrow aggregation).
	if len(a.groupBy) > 0 {
		addDef(a.groupBy, a.projected)
	}
	// Sort avoidance: equality prefix + order-by columns.
	if len(a.orderBy) > 0 {
		addDef(append(append([]string(nil), a.eqCols...), a.orderBy...), a.projected)
	}
	return defs
}

func min1(n int) int {
	if n > 1 {
		return 1
	}
	return n
}

func mergeCols(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, c := range b {
		dup := false
		for _, e := range out {
			if strings.EqualFold(e, c) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// dtaIndexName derives a deterministic, collision-free name from the
// index shape. The include-column content is folded in as a short hash,
// not just a count: hypothetical indexes are removed from the what-if
// catalog by name, so two distinct shapes sharing a name would let one
// candidate's evaluation silently drop another — or an already-chosen
// index — from the configuration mid-enumeration.
func dtaIndexName(table string, keys, include []string) string {
	base := "auto_dta_" + strings.ToLower(table) + "_" + strings.ToLower(strings.Join(keys, "_"))
	suffix := ""
	if len(include) > 0 {
		h := fnv.New64a()
		for _, c := range include {
			h.Write([]byte(strings.ToLower(c)))
			h.Write([]byte{0})
		}
		suffix = fmt.Sprintf("_i%d_%07x", len(include), h.Sum64()&0xfffffff)
	}
	if len(base)+len(suffix) > 96 {
		base = base[:96-len(suffix)]
	}
	return base + suffix
}

// miEntryToCandidate converts an MI DMV entry into a DTA search candidate
// (the augmentation of §5.3.2, costed with the optimizer's own estimates
// when the what-if API cannot cost the triggering statements).
func miEntryToCandidate(db *engine.Database, e *dmv.Entry) (core.Candidate, bool) {
	t, ok := db.Table(e.Candidate.Table)
	if !ok {
		return core.Candidate{}, false
	}
	keys := append([]string(nil), e.Candidate.Equality...)
	include := append([]string(nil), e.Candidate.Include...)
	if len(e.Candidate.Inequality) > 0 {
		keys = append(keys, e.Candidate.Inequality[0])
		include = append(include, e.Candidate.Inequality[1:]...)
	}
	if len(keys) == 0 {
		return core.Candidate{}, false
	}
	def := schema.IndexDef{
		Name:            dtaIndexName(e.Candidate.Table, keys, include),
		Table:           t.Def.Name,
		KeyColumns:      keys,
		IncludedColumns: include,
		AutoCreated:     true,
	}
	size := def.EstimatedSizeBytes(t.Def, t.RowCount)
	var impacted []uint64
	for q := range e.QueryHashes {
		impacted = append(impacted, q)
	}
	sort.Slice(impacted, func(i, j int) bool { return impacted[i] < impacted[j] })
	return core.Candidate{
		Def:               def,
		EstImprovement:    e.Score(),
		EstImprovementPct: e.AvgImprovementPct,
		EstSizeBytes:      size,
		ImpactedQueries:   impacted,
		Source:            core.SourceDTA,
		Features: []float64{
			e.AvgImprovementPct / 100,
			math.Log1p(float64(t.RowCount)),
			math.Log1p(float64(size)),
			float64(len(def.KeyColumns)),
		},
	}, true
}
