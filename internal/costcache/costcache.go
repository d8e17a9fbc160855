// Package costcache implements the plan-cost cache that sits between the
// index recommenders and the what-if optimizer. Every DTA/MI tuning pass
// prices the same Query Store templates against many hypothetical index
// configurations, and most of those (statement, configuration) pairs are
// re-priced several times within a pass — at candidate screening, during
// greedy enumeration, and again when the final report is built. The cache
// memoizes those optimizations so a pass pays for each distinct pricing
// once (see ARCHITECTURE.md "Costing path").
//
// # Key
//
// An entry is keyed by (query fingerprint, configuration signature):
//
//   - the query fingerprint is the canonical Query Store hash computed at
//     ingestion time (sqlparser.Statement.Fingerprint), the same hash DTA
//     identifies workload statements by, and
//   - the configuration signature is WhatIfCatalog.Signature over the
//     tables the statement references (sqlparser.Tables) — the sorted
//     hypothetical index definitions (name + structural signature) on
//     those tables only. An index on a table the statement never touches
//     cannot enter its plan, so it is not part of the key either.
//
// Real (non-hypothetical) indexes are deliberately absent from the key:
// any DDL that changes them fires a SchemaChange invalidation instead.
//
// # Invalidation
//
// Cached costs are valid only while the inputs of the cost model are
// unchanged. The engine invalidates the whole cache on the three events
// that can move an estimate:
//
//   - StatsRefresh: a column statistic was (re)built — histograms feed
//     every selectivity estimate;
//   - SchemaChange: an index or column was created or dropped — the plan
//     search space changed;
//   - DataChange: a write mutated table data — row counts feed scan and
//     maintenance costs directly, before any statistics refresh.
//
// # Determinism
//
// The cache is per-tenant and accessed serially by that tenant's tuning
// sessions, so hit/miss sequences never depend on worker scheduling.
// Eviction is size-bounded LRU: the eviction order is the exact access
// order, maintained as a list — no clock and no map iteration is ever
// consulted, so neither wall time nor map order leaks.
package costcache

import (
	"container/list"
	"sync"

	"autoindex/internal/metrics"
	"autoindex/internal/optimizer"
)

// Key identifies one cached pricing: a canonical query fingerprint plus
// the what-if configuration signature it was priced under.
type Key struct {
	QueryHash uint64
	ConfigSig string
}

// Reason classifies an invalidation event.
type Reason int

// Invalidation reasons (see the package comment).
const (
	StatsRefresh Reason = iota
	SchemaChange
	DataChange
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case StatsRefresh:
		return "stats-refresh"
	case SchemaChange:
		return "schema-change"
	default:
		return "data-change"
	}
}

// DefaultCapacity bounds the cache when the engine does not configure an
// explicit size. A tuning pass prices at most a few thousand distinct
// (statement, configuration) pairs, so this keeps a whole pass resident.
const DefaultCapacity = 4096

type entry struct {
	key  Key
	cost float64
	plan *optimizer.Plan
}

// Cache is a size-bounded LRU plan-cost cache for one tenant database.
// Plans stored in it are shared, immutable after Plan.finalize, and must
// not be mutated by readers.
type Cache struct {
	mu       sync.Mutex
	capacity int
	reg      *metrics.Registry
	byKey    map[Key]*list.Element
	lru      *list.List // front = most recently used
}

// New returns an empty cache bounded to capacity entries; capacity <= 0
// uses DefaultCapacity.
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		byKey:    make(map[Key]*list.Element),
		lru:      list.New(),
	}
}

// SetMetrics attaches a metrics registry for hit/miss/eviction/
// invalidation counters; nil disables them.
func (c *Cache) SetMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// Get returns the cached cost and plan for k, refreshing its recency.
func (c *Cache) Get(k Key) (float64, *optimizer.Plan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[k]
	if !ok {
		c.reg.Counter(DescMisses).Inc()
		return 0, nil, false
	}
	c.lru.MoveToFront(el)
	e := el.Value.(*entry)
	c.reg.Counter(DescHits).Inc()
	return e.cost, e.plan, true
}

// Put inserts or refreshes the pricing for k, evicting the
// least-recently-used entry when over capacity.
func (c *Cache) Put(k Key, cost float64, plan *optimizer.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*entry)
		e.cost, e.plan = cost, plan
		return
	}
	c.byKey[k] = c.lru.PushFront(&entry{key: k, cost: cost, plan: plan})
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*entry).key)
		c.reg.Counter(DescEvictions).Inc()
	}
}

// Invalidate drops every entry and returns how many were dropped. Events
// that find the cache already empty are not counted as invalidations —
// write-heavy workloads fire DataChange per statement, and counting
// no-ops would drown the signal.
func (c *Cache) Invalidate(reason Reason) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.Len()
	if n == 0 {
		return 0
	}
	c.byKey = make(map[Key]*list.Element)
	c.lru.Init()
	c.reg.Counter(invalidationDesc(reason)).Inc()
	c.reg.Counter(DescInvalidatedEntries).Add(int64(n))
	return n
}

// Reset drops every entry without touching the invalidation counters.
// It exists for tenant parking at fleet hour barriers: a tenant going
// idle resets its cache deterministically whether or not it is then
// hibernated, so cache contents — and therefore every subsequent
// counter movement — are identical with and without hibernation
// pressure. Invalidation events remain reserved for the semantic
// triggers (stats/schema/data changes).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Len() == 0 {
		return
	}
	c.byKey = make(map[Key]*list.Element)
	c.lru.Init()
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
