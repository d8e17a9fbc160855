// Package binstance implements B-instances (§7.1): independent copies of
// a database seeded from a snapshot of the primary (the A-instance),
// receiving a best-effort fork of the primary's statement stream. The
// replay is intentionally unsynchronised — statements may be dropped or
// reordered — so a B-instance can diverge; divergence is detected and
// reported, and a failed B-instance never affects the A-instance.
package binstance

import (
	"fmt"
	"sync"

	"autoindex/internal/engine"
	"autoindex/internal/sim"
)

// Config tunes the fork fidelity.
type Config struct {
	// DropProbability is the chance a forked statement is dropped.
	DropProbability float64
	// ReorderProbability is the chance a statement is swapped with its
	// successor in the forked stream.
	ReorderProbability float64
	// FailProbability is the chance the B-instance fails outright during
	// an experiment (the framework must tolerate and clean up).
	FailProbability float64
}

// DefaultConfig returns realistic fork behaviour. FailProbability is per
// forwarded statement, so long replays still see occasional instance
// failures without making every experiment fail.
func DefaultConfig() Config {
	return Config{DropProbability: 0.01, ReorderProbability: 0.02, FailProbability: 0.00005}
}

// BInstance is a forked copy of a primary database.
type BInstance struct {
	cfg Config
	rng *sim.RNG

	// DB is the B-instance's own engine (a snapshot clone of the primary).
	DB *engine.Database
	// Primary is the A-instance (never written by this package).
	Primary *engine.Database

	mu       sync.Mutex
	pending  []string
	replayed int64
	dropped  int64
	failed   bool
}

// Fork creates a B-instance from a snapshot of primary.
func Fork(primary *engine.Database, name string, cfg Config, rng *sim.RNG) *BInstance {
	return &BInstance{
		cfg:     cfg,
		rng:     rng.Child("binstance/" + name),
		DB:      primary.Clone(name),
		Primary: primary,
	}
}

// Offer forwards one statement from the TDS fork. Statements may be
// dropped or reordered before replay; they execute on the B-instance
// without any synchronisation with the primary.
func (b *BInstance) Offer(sql string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failed {
		return
	}
	if b.rng.Float64() < b.cfg.FailProbability {
		b.failed = true
		b.pending = nil
		return
	}
	if b.rng.Float64() < b.cfg.DropProbability {
		b.dropped++
		return
	}
	b.pending = append(b.pending, sql)
	if n := len(b.pending); n >= 2 && b.rng.Float64() < b.cfg.ReorderProbability {
		b.pending[n-1], b.pending[n-2] = b.pending[n-2], b.pending[n-1]
	}
	// Drain eagerly, keeping at most a small buffer to allow reordering.
	for len(b.pending) > 1 {
		b.replayOne()
	}
}

// Flush replays any buffered statements.
func (b *BInstance) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.pending) > 0 {
		b.replayOne()
	}
}

func (b *BInstance) replayOne() {
	sql := b.pending[0]
	b.pending = b.pending[1:]
	if _, err := b.DB.ExecWith(sql, engine.ExecOptions{DiscardRows: true}); err != nil {
		// Best-effort: replay errors (e.g., duplicate key from a replayed
		// insert racing a reorder) are divergence, not failures.
		b.dropped++
		return
	}
	b.replayed++
}

// Failed reports whether the B-instance failed.
func (b *BInstance) Failed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.failed
}

// Stats reports replay accounting.
func (b *BInstance) Stats() (replayed, dropped int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replayed, b.dropped
}

// Divergence measures how far the B-instance's data has drifted from the
// primary, as the max relative row-count difference across tables.
// Experiments abandon B-instances that diverge too far.
func (b *BInstance) Divergence() float64 {
	worst := 0.0
	for _, t := range b.Primary.TableNames() {
		p := float64(b.Primary.RowCount(t))
		q := float64(b.DB.RowCount(t))
		if p == 0 && q == 0 {
			continue
		}
		denom := p
		if denom < 1 {
			denom = 1
		}
		rel := abs(p-q) / denom
		if rel > worst {
			worst = rel
		}
	}
	return worst
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// String describes the instance.
func (b *BInstance) String() string {
	r, d := b.Stats()
	return fmt.Sprintf("binstance(%s replayed=%d dropped=%d failed=%v)", b.DB.Name(), r, d, b.Failed())
}
