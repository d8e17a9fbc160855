// Package dta reimplements the Database Engine Tuning Advisor [2, 10] as
// the paper's service runs it (§5.3): an automated session that (a)
// identifies a workload W from Query Store's most expensive statements
// over the last N hours, recovering truncated text from the plan cache and
// rewriting statements (e.g. BULK INSERT) that the what-if API cannot
// optimize; (b) performs per-query candidate selection from sargable
// predicates, join, group-by and order-by columns using the what-if API;
// (c) augments the search with Missing-Index candidates; and (d) runs a
// cost-based greedy workload-level enumeration under max-index and
// storage-budget constraints, within a strict resource budget, emitting a
// report with per-statement impacts and workload coverage.
package dta

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/querystore"
	"autoindex/internal/schema"
	"autoindex/internal/sqlparser"
	"autoindex/internal/value"
)

// Options configures a tuning session.
type Options struct {
	// WindowN is how far back workload identification looks (the paper's
	// "past N hours"); K is how many top statements to tune. Both are set
	// from the database's resources by OptionsForTier.
	WindowN time.Duration
	TopK    int
	// MaxIndexes and StorageBudgetBytes are the enumeration constraints.
	MaxIndexes         int
	StorageBudgetBytes int64
	// MaxWhatIfCalls is the session's optimizer-call budget (resource
	// governance, §5.3.1); 0 = unlimited.
	MaxWhatIfCalls int64
	// ReduceSampledStats enables the 2–3x sampled-statistics reduction
	// (§5.3.1): statistics are built only for candidate key columns rather
	// than every referenced column.
	ReduceSampledStats bool
	// MinImprovementFraction stops enumeration when the marginal gain
	// falls below this fraction of workload cost.
	MinImprovementFraction float64
	// AbortCheck, when non-nil, is polled between steps; returning true
	// aborts the session (the paper's automated tracking that kills DTA
	// sessions slowing user queries, §5.3.1).
	AbortCheck func() bool
	// AugmentWithMI toggles MI-candidate augmentation (§5.3.2).
	AugmentWithMI bool
	// CompressWorkload tunes a weighted representative sample of the
	// workload instead of the full top-K (querystore.CompressedTopByCPU):
	// the exact heavy-hitter head plus a CPU-proportional tail sample.
	// Leave false for exact runs over the full top-K.
	CompressWorkload bool
	// CompressionCoverage and CompressionTailSamples tune the sampler;
	// zero values use the querystore defaults.
	CompressionCoverage    float64
	CompressionTailSamples int
	// DisableCostCache forces every what-if pricing through the optimizer
	// instead of the per-tenant plan-cost cache. Recommendations are
	// identical either way (the differential test enforces it); only the
	// optimizer-call count changes.
	DisableCostCache bool
	// DisablePruning turns off upper-bound candidate pruning in the
	// greedy enumeration. Pruning is exact — a skipped candidate could
	// never have won a round — so this too changes only the call count.
	DisablePruning bool
}

// OptionsForTier scales N and K by the database's resources (§5.3.2).
func OptionsForTier(tier engine.Tier) Options {
	o := Options{
		MinImprovementFraction: 0.01,
		AugmentWithMI:          true,
		ReduceSampledStats:     true,
		CompressWorkload:       true,
		CompressionCoverage:    0.90,
		CompressionTailSamples: 4,
	}
	switch tier {
	case engine.TierBasic:
		o.WindowN = 12 * time.Hour
		o.TopK = 10
		o.MaxIndexes = 3
		o.StorageBudgetBytes = 64 << 20
		o.MaxWhatIfCalls = 800
	case engine.TierStandard:
		o.WindowN = 24 * time.Hour
		o.TopK = 20
		o.MaxIndexes = 5
		o.StorageBudgetBytes = 256 << 20
		o.MaxWhatIfCalls = 3000
	default:
		o.WindowN = 48 * time.Hour
		o.TopK = 40
		o.MaxIndexes = 10
		o.StorageBudgetBytes = 2 << 30
		o.MaxWhatIfCalls = 6000
	}
	return o
}

// ErrAborted is returned when AbortCheck tripped mid-session.
var ErrAborted = errors.New("dta: session aborted due to user-workload interference")

// StatementReport records how one analyzed statement fared.
type StatementReport struct {
	QueryHash  uint64
	Text       string
	Executions int64
	CostBefore float64
	CostAfter  float64
	// Indexes lists recommended indexes that impact this statement.
	Indexes []string
	// Rewritten notes the statement was transformed before costing
	// (BULK INSERT → INSERT).
	Rewritten bool
	// Skipped explains why a statement could not be tuned.
	Skipped string
}

// Result is a completed (or aborted) session's output.
type Result struct {
	Recommendations []core.Candidate
	Reports         []StatementReport
	Coverage        core.Coverage
	WhatIfCalls     int64
	StatsCreated    int64
	Aborted         bool
	// EstWorkloadImprovementPct is the estimated workload-cost reduction.
	EstWorkloadImprovementPct float64
}

// tunedStatement is one workload statement with its weight.
type tunedStatement struct {
	hash      uint64
	stmt      sqlparser.Statement
	weight    float64 // execution count in the window
	cpu       float64
	rewritten bool
}

// Run executes a DTA session against db.
func Run(db *engine.Database, opts Options) (*Result, error) {
	if opts.TopK == 0 {
		opts = OptionsForTier(db.Tier())
	}
	res := &Result{}
	session := db.NewWhatIfSession()
	session.MaxOptimizerCalls = opts.MaxWhatIfCalls
	session.DisableCostCache = opts.DisableCostCache
	defer session.Cleanup()

	now := db.Clock().Now()
	since := now.Add(-opts.WindowN)
	reg := db.Metrics()
	reg.Counter(descPasses).Inc()

	// (a) Workload identification from Query Store (§5.3.2), optionally
	// compressed to a weighted representative sample whose tail draw
	// comes from the tenant's own name-keyed RNG stream (deterministic at
	// any fleet worker count).
	var picked []querystore.WeightedQuery
	if opts.CompressWorkload {
		picked = db.QueryStore().CompressedTopByCPU(since, opts.TopK, querystore.CompressionOptions{
			TargetCoverage: opts.CompressionCoverage,
			TailSamples:    opts.CompressionTailSamples,
			Rand:           db.DeriveRNG("dta/compress"),
		})
	} else {
		for _, q := range db.QueryStore().TopByCPU(since, opts.TopK) {
			picked = append(picked, querystore.WeightedQuery{QueryCost: q, Weight: 1})
		}
	}
	var workload []tunedStatement
	for _, q := range picked {
		st, report := acquireStatement(db, q.QueryCost)
		if st == nil {
			res.Reports = append(res.Reports, report)
			continue
		}
		workload = append(workload, tunedStatement{
			hash: q.QueryHash, stmt: st, weight: float64(q.Executions) * q.Weight,
			cpu: q.TotalCPU * q.Weight, rewritten: report.Rewritten,
		})
	}
	// Coverage denominator is all resources, not just the top K.
	res.Coverage.TotalCPU = db.QueryStore().TotalCPU(since)

	if len(workload) == 0 {
		return res, nil
	}

	// (b) Per-query candidate selection via the what-if API, in three
	// phases: derive candidate shapes for every statement, build every
	// sampled statistic, then screen. Fronting all statistics builds means
	// nothing invalidates the plan-cost cache during screening or the
	// enumeration that follows, so repeated pricings inside one pass are
	// hits rather than new optimizer calls.
	defsPer := make([][]schema.IndexDef, len(workload))
	for i, ts := range workload {
		if opts.AbortCheck != nil && opts.AbortCheck() {
			res.Aborted = true
			return res, ErrAborted
		}
		defsPer[i] = candidateDefs(db, ts.stmt, opts)
	}
	for i := range workload {
		for _, def := range defsPer[i] {
			cols := def.KeyColumns
			if !opts.ReduceSampledStats {
				cols = def.AllColumns()
			}
			for _, c := range cols {
				session.CreateSampledStats(def.Table, c)
			}
		}
	}
	pool := make(map[string]core.Candidate)
	for i, ts := range workload {
		if opts.AbortCheck != nil && opts.AbortCheck() {
			res.Aborted = true
			return res, ErrAborted
		}
		for _, cand := range screenCandidates(db, ts, defsPer[i], session) {
			sig := cand.Def.Signature()
			if ex, ok := pool[sig]; ok {
				ex.ImpactedQueries = core.MergeImpacted(ex.ImpactedQueries, []uint64{ts.hash})
				pool[sig] = ex
			} else {
				cand.ImpactedQueries = []uint64{ts.hash}
				cand.Source = core.SourceDTA
				pool[sig] = cand
			}
		}
	}

	// (c) Augment with Missing-Index candidates (§5.3.2): MI may cover
	// statements DTA could not parse or cost.
	if opts.AugmentWithMI {
		for _, e := range db.MissingIndexDMV().Snapshot() {
			cand, ok := miEntryToCandidate(db, e)
			if !ok {
				continue
			}
			sig := cand.Def.Signature()
			if _, dup := pool[sig]; !dup {
				pool[sig] = cand
			}
		}
	}

	generated := int64(len(pool))
	reg.Counter(descCandidatesGenerated).Add(generated)

	// Drop candidates duplicating existing indexes.
	existing := db.IndexDefs()
	for sig, c := range pool {
		for _, e := range existing {
			if strings.EqualFold(e.Table, c.Def.Table) && e.SameKey(c.Def) {
				delete(pool, sig)
				break
			}
		}
	}

	reg.Counter(descCandidatesPruned).Add(generated - int64(len(pool)))

	candidates := make([]core.Candidate, 0, len(pool))
	for _, c := range pool {
		candidates = append(candidates, c)
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].Def.Signature() < candidates[j].Def.Signature() })

	// Sampled statistics for every pool candidate: MI augmentation can
	// introduce key columns the per-statement phase never saw, and a stat
	// built lazily mid-search shifts later cost estimates. Building them
	// all before enumeration keeps the statistics state independent of
	// which evaluations upper-bound pruning skips — pruning must change
	// only the call count, never a cost.
	for _, c := range candidates {
		cols := c.Def.KeyColumns
		if !opts.ReduceSampledStats {
			cols = c.Def.AllColumns()
		}
		for _, col := range cols {
			session.CreateSampledStats(c.Def.Table, col)
		}
	}

	// (d) Workload-level greedy enumeration under constraints (§5.1.1).
	chosen, baseline, finalCost, err := enumerate(db, session, workload, candidates, opts, res)
	if err != nil {
		if errors.Is(err, engine.ErrWhatIfBudget) {
			// Budget exhausted: return what we have (partial result).
			res.Aborted = true
		} else if errors.Is(err, ErrAborted) {
			res.Aborted = true
			return res, err
		} else {
			return res, err
		}
	}
	res.Recommendations = chosen
	if baseline > 0 {
		res.EstWorkloadImprovementPct = (baseline - finalCost) / baseline * 100
	}

	// Per-statement report + analyzed coverage.
	res.buildReports(db, session, workload, chosen)
	res.WhatIfCalls = session.Calls()
	res.StatsCreated = session.StatsCreated
	return res, nil
}

// acquireStatement obtains a parseable statement for a Query Store entry,
// applying the §5.3.2 text-recovery and rewriting tricks: truncated text
// is recovered from the plan cache, BULK INSERT is rewritten into an
// INSERT equivalent so index maintenance is costed, and statements that
// still cannot be parsed are reported as skipped (their cost counts
// against coverage).
func acquireStatement(db *engine.Database, q querystore.QueryCost) (sqlparser.Statement, StatementReport) {
	report := StatementReport{QueryHash: q.QueryHash, Text: q.Text, Executions: q.Executions}
	text := q.Text
	if q.Truncated {
		if full, ok := db.PlanCacheText(q.QueryHash); ok {
			text = full
		} else if full, ok := db.ModuleText(q.QueryHash); ok {
			// Stored procedure / function bodies live in system metadata
			// even when the plan cache was evicted (§5.3.2).
			text = full
		} else {
			report.Skipped = "truncated text not recoverable from plan cache or module metadata"
			return nil, report
		}
	}
	stmt, err := sqlparser.Parse(text)
	if err != nil {
		report.Skipped = fmt.Sprintf("unparseable: %v", err)
		return nil, report
	}
	if b, ok := stmt.(*sqlparser.BulkInsertStmt); ok {
		// Rewrite into an optimizable INSERT with the same row volume.
		stmt = rewriteBulkInsert(db, b)
		report.Rewritten = true
	}
	return stmt, report
}

// rewriteBulkInsert converts BULK INSERT into a representative multi-row
// INSERT that the what-if API can cost (§5.3.2).
func rewriteBulkInsert(db *engine.Database, b *sqlparser.BulkInsertStmt) sqlparser.Statement {
	t, ok := db.Table(b.Table)
	if !ok {
		return b
	}
	n := b.RowEstimate
	if n <= 0 {
		n = 1000
	}
	rows := make([]value.Row, n)
	proto := make(value.Row, len(t.Def.Columns))
	for i := range proto {
		proto[i] = value.NewInt(0)
	}
	for i := range rows {
		rows[i] = proto
	}
	return &sqlparser.InsertStmt{Table: t.Def.Name, Rows: rows}
}
