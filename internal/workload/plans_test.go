package workload

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"autoindex/internal/engine"
	"autoindex/internal/optimizer"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/sqlparser"
)

// TestPlanChoicesFrozen pins what the optimizer chooses for the 1 000
// statements of each TestStatementResultsFrozen tenant: each statement is
// executed, which plans it as the engine does, then planned again in a
// what-if session holding three hypothetical indexes on every table. The
// plan hash, estimated cost and rows (to the bit), query hash and indexes
// used of both plans are hashed in statement order, so a change to how a
// plan is computed that alters any choice or estimate moves the hash.
func TestPlanChoicesFrozen(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		want uint64
	}{
		{Profile{Name: "frozen-heaps", Tier: engine.TierStandard, Seed: 6, UserIndexes: true}, 0x90373607cc60f479},
		{Profile{Name: "frozen-clustered", Tier: engine.TierStandard, Seed: 2}, 0x06bbed74fa2268cb},
	} {
		tn := newTenant(t, tc.p)
		wi := tn.DB.NewWhatIfSession()
		for _, name := range tn.DB.TableNames() {
			for _, def := range hypotheticalIndexes(tn.DB, name) {
				wi.Catalog().AddHypothetical(def)
			}
		}
		h := fnv.New64a()
		hashPlan := func(p *optimizer.Plan, err error) {
			if err != nil {
				fmt.Fprintln(h, "error:", err)
				return
			}
			fmt.Fprintln(h, p.PlanHash, math.Float64bits(p.EstCost), math.Float64bits(p.EstRows), p.QueryHash, p.IndexesUsed)
		}
		for _, sql := range tn.Stream(1000) {
			stmt, err := sqlparser.Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tn.DB.ExecStmt(stmt)
			if err == nil && res.Plan == nil {
				err = fmt.Errorf("no plan")
			}
			if err != nil {
				hashPlan(nil, err)
			} else {
				hashPlan(res.Plan, nil)
			}
			_, p, err := wi.Cost(stmt)
			hashPlan(p, err)
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: plan choices hash %#016x, frozen at %#016x", tc.p.Name, got, tc.want)
		}
	}
}

// hypotheticalIndexes returns three what-if indexes on table: one on its
// last column, one on its second column including its first, and one
// keyed on its third and second columns including every other column.
func hypotheticalIndexes(db *engine.Database, table string) []schema.IndexDef {
	info, _ := db.Table(table)
	var cols []string
	for _, c := range info.Def.Columns {
		cols = append(cols, c.Name)
	}
	at := func(i int) string { return cols[i%len(cols)] }
	var rest []string
	for _, c := range cols {
		if !strings.EqualFold(c, at(2)) && !strings.EqualFold(c, at(1)) {
			rest = append(rest, c)
		}
	}
	defs := []schema.IndexDef{
		{Name: "hx_" + table + "_last", Table: table, KeyColumns: []string{at(len(cols) - 1)}},
		{Name: "hx_" + table + "_second", Table: table, KeyColumns: []string{at(1)}, IncludedColumns: []string{at(0)}},
		{Name: "hx_" + table + "_wide", Table: table, KeyColumns: []string{at(2), at(1)}, IncludedColumns: rest},
	}
	out := defs[:0]
	for _, d := range defs {
		if d.Validate(info.Def) == nil {
			out = append(out, d)
		}
	}
	return out
}

// pointLookup returns serve_seek's tenant — db000 of fleet seed 42 at
// full scale, with user indexes — and one of its primary-key point
// lookups, parsed.
func pointLookup(tb testing.TB) (*Tenant, sqlparser.Statement) {
	tb.Helper()
	tn, err := NewTenant(Profile{Name: "db000", Tier: engine.TierStandard, Seed: 42, Scale: 1, UserIndexes: true}, sim.NewClock())
	if err != nil {
		tb.Fatal(err)
	}
	for _, tpl := range tn.Templates {
		if strings.HasSuffix(tpl.Name, "/point") {
			stmt, err := sqlparser.Parse(tpl.Gen(tn))
			if err != nil {
				tb.Fatal(err)
			}
			return tn, stmt
		}
	}
	tb.Fatal("no point-lookup template")
	return nil, nil
}

// BenchmarkPlanPointLookup plans one primary-key point lookup as the
// serving path does: a regular (not what-if) optimization, no MI
// observer.
func BenchmarkPlanPointLookup(b *testing.B) {
	tn, stmt := pointLookup(b)
	opt := &optimizer.Optimizer{Cat: tn.DB}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Plan(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlanPointLookupAllocs holds BenchmarkPlanPointLookup's allocations
// at what they are measured at; lower it when they fall, never raise it.
func TestPlanPointLookupAllocs(t *testing.T) {
	tn, stmt := pointLookup(t)
	opt := &optimizer.Optimizer{Cat: tn.DB}
	got := testing.AllocsPerRun(200, func() {
		if _, err := opt.Plan(stmt); err != nil {
			t.Fatal(err)
		}
	})
	const held = 9
	if got > held {
		t.Errorf("planning a point lookup allocates %.0f times, held at %d", got, held)
	}
	t.Logf("%s: %.0f allocations", stmt.SQL(), got)
}
