package workload

import (
	"time"

	"autoindex/internal/engine"
)

// RunStats summarises a replay.
type RunStats struct {
	Statements int
	Errors     int
	Writes     int
	ByTemplate map[string]int
}

// pickTemplate samples a template by weight.
func (t *Tenant) pickTemplate() *Template {
	if len(t.Templates) == 0 {
		return nil
	}
	var total float64
	for _, tpl := range t.Templates {
		total += tpl.Weight
	}
	x := t.rng.Float64() * total
	for _, tpl := range t.Templates {
		x -= tpl.Weight
		if x <= 0 {
			return tpl
		}
	}
	return t.Templates[len(t.Templates)-1]
}

// Statement samples one SQL statement from the mix.
func (t *Tenant) Statement() string {
	tpl := t.pickTemplate()
	if tpl == nil {
		return ""
	}
	return tpl.Gen(t)
}

// Stream samples n statements from the mix (for TDS-fork style replay to
// B-instances).
func (t *Tenant) Stream(n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if s := t.Statement(); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// Run executes n freshly-sampled statements against the tenant's own
// database, spread evenly over the virtual duration d.
func (t *Tenant) Run(d time.Duration, n int) RunStats {
	return t.Replay(t.DB, t.Stream(n), d)
}

// Replay executes a statement stream against db (the primary or a
// B-instance), spreading it over the virtual duration d. A small fraction
// of statements register long-running shared schema locks, giving the lock
// manager's convoy machinery something real to do.
func (t *Tenant) Replay(db *engine.Database, stmts []string, d time.Duration) RunStats {
	stats := RunStats{ByTemplate: make(map[string]int)}
	if len(stmts) == 0 {
		if d > 0 {
			db.Clock().Sleep(d)
		}
		return stats
	}
	step := d / time.Duration(len(stmts))
	for _, sql := range stmts {
		res, err := db.ExecWith(sql, engine.ExecOptions{DiscardRows: true})
		stats.Statements++
		if err != nil {
			stats.Errors++
		} else if res.RowsAffected > 0 {
			stats.Writes++
		}
		if t.rng.Float64() < t.longQueryProb {
			// A long-running query/transaction holds its shared schema lock
			// for a while.
			for _, tbl := range db.TableNames() {
				db.Locks().HoldShared(tbl, db.Clock().Now().Add(2*time.Minute))
				break
			}
		}
		if step > 0 {
			db.Clock().Sleep(step)
		}
	}
	return stats
}
