package engine

import (
	"errors"

	"autoindex/internal/costcache"
	"autoindex/internal/optimizer"
	"autoindex/internal/sqlparser"
)

// ErrWhatIfBudget is returned when a what-if session exhausts its
// optimizer-call budget — the resource governance DTA runs under (§5.3.1).
var ErrWhatIfBudget = errors.New("engine: what-if session optimizer-call budget exhausted")

// WhatIfSession reproduces the AutoAdmin what-if index analysis utility
// [11]: callers add hypothetical indexes (metadata + statistics only) and
// cost statements against the resulting configuration without building
// anything. Each session is budgeted: SQL Server's resource governor
// limits DTA's footprint on the primary, and exceeding the budget aborts
// the session.
type WhatIfSession struct {
	db  *Database
	cat *optimizer.WhatIfCatalog
	opt *optimizer.Optimizer
	// MaxOptimizerCalls bounds the session; 0 means unlimited.
	MaxOptimizerCalls int64
	// StatsCreated counts sampled-statistics builds charged to the
	// session (DTA's main server-side overhead, §5.3.1).
	StatsCreated int64
	// DisableCostCache bypasses the database's plan-cost cache, forcing
	// every pricing through the optimizer (exact runs, differential
	// tests). Cache hits never count against MaxOptimizerCalls — a hit
	// imposes no load on the server the budget protects.
	DisableCostCache bool
}

// NewWhatIfSession opens a what-if session over the database.
func (d *Database) NewWhatIfSession() *WhatIfSession {
	cat := optimizer.NewWhatIfCatalog(d)
	return &WhatIfSession{
		db:  d,
		cat: cat,
		opt: &optimizer.Optimizer{Cat: cat, WhatIfMode: true, Reg: d.Metrics()},
	}
}

// Catalog exposes the overlay catalog (for adding/removing hypotheticals).
func (s *WhatIfSession) Catalog() *optimizer.WhatIfCatalog { return s.cat }

// Calls reports optimizer calls made so far.
func (s *WhatIfSession) Calls() int64 { return s.opt.Calls() }

// Cost plans stmt under the session's hypothetical configuration and
// returns the estimated cost. Statements the what-if API cannot optimize
// return optimizer.ErrWhatIfUnsupported; budget exhaustion returns
// ErrWhatIfBudget.
func (s *WhatIfSession) Cost(stmt sqlparser.Statement) (float64, *optimizer.Plan, error) {
	if s.MaxOptimizerCalls > 0 && s.opt.Calls() >= s.MaxOptimizerCalls {
		return 0, nil, ErrWhatIfBudget
	}
	return s.opt.CostStatement(stmt)
}

// CostQuery is Cost with plan-cost caching, and the only cached pricing
// entry point: queryHash is the statement's canonical Query Store
// fingerprint, and (queryHash, the overlay as the statement's own tables
// see it) keys the lookup, so hypothetical indexes on tables the statement
// never references neither miss nor re-price. Misses fall through to the
// optimizer and fill the cache; hits consume no optimizer-call budget.
func (s *WhatIfSession) CostQuery(queryHash uint64, stmt sqlparser.Statement) (float64, *optimizer.Plan, error) {
	if s.DisableCostCache || queryHash == 0 {
		return s.Cost(stmt)
	}
	key := costcache.Key{QueryHash: queryHash, ConfigSig: s.cat.Signature(sqlparser.Tables(stmt))}
	if cost, plan, ok := s.db.costCache.Get(key); ok {
		return cost, plan, nil
	}
	cost, plan, err := s.Cost(stmt)
	if err != nil {
		return 0, nil, err
	}
	s.db.costCache.Put(key, cost, plan)
	return cost, plan, nil
}

// CreateSampledStats simulates DTA building a sampled statistic on the
// server: the work is charged to the session and to virtual time.
func (s *WhatIfSession) CreateSampledStats(table, column string) {
	s.StatsCreated++
	// Building a sampled stat reads a fraction of the table.
	s.db.rebuildColumnStats(table, column)
}

// Cleanup removes all hypothetical indexes, as the control plane does when
// a DTA session ends or is aborted (§5.3.3).
func (s *WhatIfSession) Cleanup() { s.cat.ClearHypothetical() }
