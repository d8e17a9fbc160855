// Package engine implements the database engine the auto-indexing service
// manages: tables stored in heaps or clustered B+ trees, non-clustered
// secondary indexes, a lock manager with managed lock priorities, online
// index builds with log-space accounting, column statistics with
// staleness, and statement execution that records true costs into Query
// Store and missing-index candidates into the MI DMVs. It is the
// SQL Server stand-in for the reproduction; see DESIGN.md §1.
package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/costcache"
	"autoindex/internal/dmv"
	"autoindex/internal/faults"
	"autoindex/internal/metrics"
	"autoindex/internal/optimizer"
	"autoindex/internal/querystore"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/stats"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// Tier models the Azure SQL Database service tiers the paper's policy
// dispatches on (§5.1.1): Basic databases get the lightweight MI
// recommender, Premium databases the comprehensive DTA analysis.
type Tier int

// Service tiers.
const (
	TierBasic Tier = iota
	TierStandard
	TierPremium
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierBasic:
		return "Basic"
	case TierStandard:
		return "Standard"
	default:
		return "Premium"
	}
}

// CPUCores returns the tier's CPU allocation (Basic has less than a core,
// as in the paper's fourth challenge).
func (t Tier) CPUCores() float64 {
	switch t {
	case TierBasic:
		return 0.5
	case TierStandard:
		return 2
	default:
		return 8
	}
}

// Config tunes a database instance.
type Config struct {
	Name string
	Tier Tier
	// Seed drives all of this database's randomness.
	Seed int64
	// NoiseCV is the coefficient of variation of measurement noise.
	NoiseCV float64
	// StatsSampleRate is the sampling rate for automatic statistics
	// (re)builds; lower rates mean cheaper but less accurate estimates.
	StatsSampleRate float64
	// StatsRefreshFraction triggers an automatic statistics rebuild for a
	// column once the table's row count drifts by this fraction from the
	// count at build time.
	StatsRefreshFraction float64
	// QueryStoreInterval is the Query Store aggregation interval.
	QueryStoreInterval time.Duration
	// TruncateTextOver simulates Query Store storing incomplete text for
	// long statements (§5.3.2); 0 disables truncation.
	TruncateTextOver int
	// LogSpaceBytes bounds the transaction log available to an index
	// build before it must pause (resumable) or fail (§8.3).
	LogSpaceBytes int64
}

// DefaultConfig returns a sensible configuration for the tier.
func DefaultConfig(name string, tier Tier, seed int64) Config {
	cfg := Config{
		Name:                 name,
		Tier:                 tier,
		Seed:                 seed,
		NoiseCV:              0.12,
		StatsSampleRate:      0.25,
		StatsRefreshFraction: 0.20,
		QueryStoreInterval:   querystore.DefaultInterval,
		TruncateTextOver:     220,
		LogSpaceBytes:        256 << 20,
	}
	switch tier {
	case TierBasic:
		cfg.StatsSampleRate = 0.10
		cfg.LogSpaceBytes = 32 << 20
	case TierStandard:
		cfg.StatsSampleRate = 0.20
		cfg.LogSpaceBytes = 128 << 20
	}
	return cfg
}

// dbState is the part of a Database that tenant hibernation persists
// (beside the two RNG stream positions), in snapshot order; see
// dbState.walk. All of it is guarded by Database.mu.
type dbState struct {
	// dataVersion counts data-modifying statements; statsVersion records
	// the data version each column statistic was built at, so a rebuild
	// over unchanged data can be skipped (the name-keyed stats RNG stream
	// makes the rebuild bit-identical anyway).
	dataVersion   int64
	execCount     int64
	failovers     int64
	schemaChanges int64
	convoyBlocked int64
	statsVersion  map[string]int64
	tables        map[string]*tableData // lower(name)
	indexes       map[string]*indexData // lower(name)
	colStat       map[string]*stats.ColumnStats
	planTxt       map[uint64]string // plan-cache: full text by query hash
}

// Database is one managed database instance.
type Database struct {
	cfg   Config
	clock sim.Clock
	rng   *sim.RNG
	noise *sim.Noise

	mu sync.RWMutex
	dbState

	// costCache memoizes what-if plan costs (see internal/costcache).
	costCache *costcache.Cache
	// statsRefreshHook, when set, observes every real statistics rebuild.
	statsRefreshHook func(table, column string)

	qs    *querystore.Store
	miDMV *dmv.MissingIndexStore
	usage *dmv.IndexUsageStore
	locks *LockManager

	bulkSources map[string]BulkSource
	modules     *moduleCatalog

	// injector, when set, fires the engine's chaos fault points (index
	// builds and drops); nil in production paths.
	injector *faults.Injector
	// reg, when set, receives engine/optimizer metrics; nil disables
	// them (every handle method is a no-op on nil).
	reg *metrics.Registry

	// loadFactor multiplies measured CPU and duration (stored as
	// math.Float64bits; 0 means unset, i.e. 1.0). Noisy-neighbor
	// scenarios raise it at hour barriers to model co-tenants stealing
	// shared-shard resources, skewing the timing signals the validator
	// and recommenders consume. Atomic so barrier-time writes never race
	// in-flight measurement reads under the race detector.
	loadFactor atomic.Uint64
}

// BulkSource supplies rows for BULK INSERT statements.
type BulkSource func(n int64) []value.Row

// New creates an empty database.
func New(cfg Config, clock sim.Clock) *Database {
	if cfg.NoiseCV == 0 {
		cfg.NoiseCV = 0.12
	}
	if cfg.StatsSampleRate == 0 {
		cfg.StatsSampleRate = 0.25
	}
	if cfg.StatsRefreshFraction == 0 {
		cfg.StatsRefreshFraction = 0.20
	}
	rng := sim.NewRNG(cfg.Seed).Child("engine/" + cfg.Name)
	return &Database{
		cfg:   cfg,
		clock: clock,
		rng:   rng,
		noise: sim.NewNoise(rng, cfg.NoiseCV),
		dbState: dbState{
			statsVersion: make(map[string]int64),
			tables:       make(map[string]*tableData),
			indexes:      make(map[string]*indexData),
			colStat:      make(map[string]*stats.ColumnStats),
			planTxt:      make(map[uint64]string),
		},
		costCache:   costcache.New(0),
		qs:          querystore.New(clock, cfg.QueryStoreInterval),
		miDMV:       dmv.NewMissingIndexStore(),
		usage:       dmv.NewIndexUsageStore(),
		locks:       NewLockManager(clock),
		bulkSources: make(map[string]BulkSource),
		modules:     newModuleCatalog(),
	}
}

// Name returns the database name.
func (d *Database) Name() string { return d.cfg.Name }

// Tier returns the service tier.
func (d *Database) Tier() Tier { return d.cfg.Tier }

// Config returns the configuration.
func (d *Database) Config() Config { return d.cfg }

// Clock returns the database's time source.
func (d *Database) Clock() sim.Clock { return d.clock }

// QueryStore returns the database's Query Store.
func (d *Database) QueryStore() *querystore.Store { return d.qs }

// MissingIndexDMV returns the missing-index DMV store.
func (d *Database) MissingIndexDMV() *dmv.MissingIndexStore { return d.miDMV }

// UsageDMV returns the index usage statistics store.
func (d *Database) UsageDMV() *dmv.IndexUsageStore { return d.usage }

// Locks returns the lock manager.
func (d *Database) Locks() *LockManager { return d.locks }

// SetLoadFactor scales every subsequent statement's measured CPU and
// duration by f (f <= 0 resets to 1.0). It models a noisy co-tenant on
// the same shared shard: logical reads stay deterministic and honest,
// but the timing metrics — exactly what the validator and the MI
// slope test consume — inflate.
func (d *Database) SetLoadFactor(f float64) {
	if f <= 0 || f == 1 {
		d.loadFactor.Store(0)
		return
	}
	d.loadFactor.Store(math.Float64bits(f))
}

// LoadFactor returns the current measurement scale (1.0 when unset).
func (d *Database) LoadFactor() float64 {
	if b := d.loadFactor.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	return 1.0
}

// RegisterBulkSource installs the row generator behind a BULK INSERT data
// source name.
func (d *Database) RegisterBulkSource(name string, src BulkSource) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bulkSources[strings.ToLower(name)] = src
}

// SetFaultInjector attaches a chaos fault injector to this database's DDL
// paths (see internal/faults). Pass nil to disable. Safe to call
// concurrently with running statements.
func (d *Database) SetFaultInjector(in *faults.Injector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.injector = in
}

// faultInjector reads the attached injector (nil when chaos is off).
func (d *Database) faultInjector() *faults.Injector {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.injector
}

// SetMetrics attaches a metrics registry; the engine, its optimizers,
// and the recommenders reading through Metrics() all feed it. Pass nil
// to disable. Safe to call concurrently with running statements.
func (d *Database) SetMetrics(reg *metrics.Registry) {
	d.mu.Lock()
	d.reg = reg
	d.mu.Unlock()
	d.costCache.SetMetrics(reg)
}

// PlanCostCache returns the database's plan-cost cache. What-if sessions
// read and fill it; the engine invalidates it on stats refresh, schema
// change, and data change.
func (d *Database) PlanCostCache() *costcache.Cache { return d.costCache }

// SetStatsRefreshHook installs an observer called after every real
// (non-skipped) statistics rebuild; the control plane uses it to count
// stats-driven cache invalidations per tenant. Pass nil to remove.
func (d *Database) SetStatsRefreshHook(h func(table, column string)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.statsRefreshHook = h
}

// DeriveRNG derives a named child stream from the database's root RNG.
// Name-keyed derivation means a new consumer never perturbs the draws of
// existing ones — workload compression samples from such a stream.
func (d *Database) DeriveRNG(name string) *sim.RNG { return d.rng.Child(name) }

// Metrics reads the attached registry (nil when metrics are off).
func (d *Database) Metrics() *metrics.Registry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.reg
}

// Failover simulates a server failover: the missing-index DMVs reset
// (§5.2) and the plan cache empties.
func (d *Database) Failover() {
	d.mu.Lock()
	d.failovers++
	d.planTxt = make(map[uint64]string)
	d.mu.Unlock()
	d.miDMV.Reset()
}

// Failovers reports how many failovers have occurred.
func (d *Database) Failovers() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.failovers
}

// ConvoyBlockedStatements reports how many statements were blocked behind
// a normal-priority exclusive lock request (§8.3's convoy problem).
func (d *Database) ConvoyBlockedStatements() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.convoyBlocked
}

// ExecCount reports how many statements this database has executed.
func (d *Database) ExecCount() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.execCount
}

// noteSchemaChange resets volatile DMV state, as DDL does in SQL Server.
func (d *Database) noteSchemaChange() {
	d.schemaChanges++
	for _, t := range d.tables {
		t.infos.Store(nil) // a definition may have changed in place
	}
	d.miDMV.Reset()
	d.costCache.Invalidate(costcache.SchemaChange)
}

// ---- table & index storage ----

// tableData is the physical storage of one table.
type tableData struct {
	def  *schema.Table
	heap *storage.Heap // nil when clustered
	// clustered holds the full rows keyed by primary key.
	clustered *btree.Tree
	rowCount  int64
	// indexes are the table's secondary indexes, sorted by name: the
	// optimizer breaks cost ties by candidate order, and DML charges
	// maintenance per index in this order (float addition is not
	// associative, so map order would make measured CPU wobble).
	indexes []*indexData
	// infos caches what Indexes answers for this list. A change to the
	// list or to a definition in it drops it; a reader rebuilds it once an
	// index tree's height, leaf count or size has moved.
	infos atomic.Pointer[[]optimizer.IndexInfo]
}

// addIndex files ix in the table's name-sorted list, a fresh slice: a
// holder of the old one never sees it change.
func (t *tableData) addIndex(ix *indexData) {
	t.indexes = append(slices.Clip(t.indexes), ix)
	slices.SortFunc(t.indexes, func(a, b *indexData) int { return strings.Compare(a.def.Name, b.def.Name) })
	t.infos.Store(nil)
}

// putIndex installs ix under its name and in its table's list; removeIndex
// drops the named index from both. Callers hold d.mu.
func (d *Database) putIndex(ix *indexData) {
	d.indexes[strings.ToLower(ix.def.Name)] = ix
	d.tables[strings.ToLower(ix.def.Table)].addIndex(ix)
}

func (d *Database) removeIndex(name string) {
	if ix := d.indexes[strings.ToLower(name)]; ix != nil {
		delete(d.indexes, strings.ToLower(name))
		t := d.tables[strings.ToLower(ix.def.Table)]
		t.indexes = slices.DeleteFunc(slices.Clone(t.indexes), func(x *indexData) bool { return x == ix })
		t.infos.Store(nil)
	}
}

// pkOrdinals resolves the primary-key columns to row ordinals; a write
// statement resolves them once, not per row.
func (t *tableData) pkOrdinals() []int {
	out := make([]int, len(t.def.PrimaryKey))
	for i, c := range t.def.PrimaryKey {
		out[i] = t.def.ColumnIndex(c)
	}
	return out
}

func (t *tableData) dataPages() int64 {
	if t.heap != nil {
		return t.heap.Pages()
	}
	return storage.PagesFor(t.rowCount, t.def.RowWidth())
}

func (t *tableData) clusteredHeight() int {
	if t.clustered == nil {
		return 0
	}
	return t.clustered.Height()
}

// indexData is a materialised non-clustered index. Tree keys are the index
// key columns followed by the row locator (for uniqueness); payloads hold
// the included columns followed by the locator.
type indexData struct {
	def       schema.IndexDef
	tree      *btree.Tree
	keyOrds   []int // ordinals of key columns in the base table
	inclOrds  []int
	createdAt time.Time
	sizeBytes int64
}

// resolve sets the key and included columns' ordinals in t, as fresh
// slices: plans may still hold the old ones.
func (ix *indexData) resolve(t *schema.Table) {
	ix.keyOrds, ix.inclOrds = t.Ordinals(ix.def.KeyColumns), t.Ordinals(ix.def.IncludedColumns)
}

// keyFor returns the tree key of row's entry: the index key columns, then
// the locator. Deleting an entry needs only this.
func (ix *indexData) keyFor(row value.Row, loc value.Key) value.Key {
	key := make(value.Key, 0, len(ix.keyOrds)+len(loc))
	for _, o := range ix.keyOrds {
		key = append(key, row[o])
	}
	return append(key, loc...)
}

// entryFor returns row's whole entry: keyFor and the payload, the included
// columns then the locator.
func (ix *indexData) entryFor(row value.Row, loc value.Key) (value.Key, value.Row) {
	key := ix.keyFor(row, loc)
	payload := make(value.Row, 0, len(ix.inclOrds)+len(loc))
	for _, o := range ix.inclOrds {
		payload = append(payload, row[o])
	}
	return key, append(payload, loc...)
}

// ---- catalog implementation (optimizer.Catalog) ----

// Table implements optimizer.Catalog.
func (d *Database) Table(name string) (optimizer.TableInfo, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t, ok := d.tables[strings.ToLower(name)]
	if !ok {
		return optimizer.TableInfo{}, false
	}
	return optimizer.TableInfo{
		Def:             t.def,
		RowCount:        t.rowCount,
		DataPages:       t.dataPages(),
		ClusteredHeight: t.clusteredHeight(),
	}, true
}

// Indexes implements optimizer.Catalog from the table's name-sorted
// index list, answering the cached list while every tree in it keeps its
// shape.
func (d *Database) Indexes(table string) []optimizer.IndexInfo {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t := d.tables[strings.ToLower(table)]
	if t == nil || len(t.indexes) == 0 {
		return nil
	}
	if c := t.infos.Load(); c != nil && slices.EqualFunc(*c, t.indexes, sameShape) {
		return *c
	}
	out := make([]optimizer.IndexInfo, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = ix.info()
	}
	t.infos.Store(&out)
	return out
}

// info is ix as the optimizer sees it.
func (ix *indexData) info() optimizer.IndexInfo {
	return optimizer.IndexInfo{
		Def:       ix.def,
		KeyOrds:   ix.keyOrds,
		InclOrds:  ix.inclOrds,
		Height:    ix.tree.Height(),
		LeafPages: int64(ix.tree.LeafCount()),
		RowCount:  int64(ix.tree.Len()),
	}
}

// sameShape reports whether info still holds the shape of ix's tree.
func sameShape(info optimizer.IndexInfo, ix *indexData) bool {
	return info.Height == ix.tree.Height() && info.LeafPages == int64(ix.tree.LeafCount()) && info.RowCount == int64(ix.tree.Len())
}

// ColumnStats implements optimizer.Catalog, lazily refreshing stale
// statistics with a sampled rebuild.
func (d *Database) ColumnStats(table, column string) (*stats.ColumnStats, bool) {
	d.mu.RLock()
	// statKey spelled out: a concatenation used only as a map key is
	// built on the stack.
	st, ok := d.colStat[strings.ToLower(table)+"."+strings.ToLower(column)]
	var rowCount int64
	if t, tok := d.tables[strings.ToLower(table)]; tok {
		rowCount = t.rowCount
	}
	d.mu.RUnlock()
	if ok && st != nil {
		drift := abs64(rowCount - int64(st.RowCount))
		if float64(drift) <= d.cfg.StatsRefreshFraction*maxF(st.RowCount, 1) {
			return st, true
		}
	}
	// (Re)build with sampling.
	return d.rebuildColumnStats(table, column)
}

func statKey(table, column string) string {
	return strings.ToLower(table) + "." + strings.ToLower(column)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// rebuildColumnStats builds sampled statistics for a column. A rebuild
// over data unchanged since the last build is skipped: the stats RNG
// stream is name-keyed (derived fresh per build), so re-running it would
// produce a bit-identical statistic while needlessly flushing the
// plan-cost cache.
func (d *Database) rebuildColumnStats(table, column string) (*stats.ColumnStats, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok {
		return nil, false
	}
	ord := t.def.ColumnIndex(column)
	if ord < 0 {
		return nil, false
	}
	key := statKey(table, column)
	if st, ok2 := d.colStat[key]; ok2 && st != nil && d.statsVersion[key] == d.dataVersion {
		return st, true
	}
	vals := make([]value.Value, 0, t.rowCount)
	collect := func(row value.Row) { vals = append(vals, row[ord]) }
	if t.heap != nil {
		t.heap.Scan(func(_ storage.RID, r value.Row) bool { collect(r); return true })
	} else {
		t.clustered.Ascend(func(e btree.Entry) bool { collect(e.Payload); return true })
	}
	st := stats.BuildSampled(column, vals, d.cfg.StatsSampleRate, d.rng.Child("stats/"+table+"/"+column), d.clock.Now())
	d.colStat[key] = st
	d.statsVersion[key] = d.dataVersion
	d.costCache.Invalidate(costcache.StatsRefresh)
	if d.statsRefreshHook != nil {
		d.statsRefreshHook(t.def.Name, column)
	}
	return st, true
}

// RebuildAllStats rebuilds statistics for every column (used by tests and
// after bulk loads).
func (d *Database) RebuildAllStats() {
	d.mu.RLock()
	type tc struct{ table, col string }
	var all []tc
	//lint:ignore maporder per-column rebuilds are independent: stats RNG streams are name-keyed (sim.RNG.Child) and all rebuilds share one virtual timestamp
	for _, t := range d.tables {
		for _, c := range t.def.Columns {
			all = append(all, tc{t.def.Name, c.Name})
		}
	}
	d.mu.RUnlock()
	for _, x := range all {
		d.rebuildColumnStats(x.table, x.col)
	}
}

// TableNames lists the tables, sorted.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		out = append(out, t.def.Name)
	}
	sort.Strings(out)
	return out
}

// IndexDefs lists every index definition, sorted by name.
func (d *Database) IndexDefs() []schema.IndexDef {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]schema.IndexDef, 0, len(d.indexes))
	for _, ix := range d.indexes {
		out = append(out, ix.def.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IndexDef returns one index definition by name.
func (d *Database) IndexDef(name string) (schema.IndexDef, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	ix, ok := d.indexes[strings.ToLower(name)]
	if !ok {
		return schema.IndexDef{}, false
	}
	return ix.def.Clone(), true
}

// RowCount returns a table's row count.
func (d *Database) RowCount(table string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if t, ok := d.tables[strings.ToLower(table)]; ok {
		return t.rowCount
	}
	return 0
}

// MarkIndexHinted marks an index as referenced by query hints or forced
// plans, excluding it from automatic drops (§5.4).
func (d *Database) MarkIndexHinted(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ix, ok := d.indexes[strings.ToLower(name)]
	if !ok {
		return fmt.Errorf("engine: no index %q", name)
	}
	ix.def.Hinted = true
	d.tables[strings.ToLower(ix.def.Table)].infos.Store(nil)
	return nil
}

var _ optimizer.Catalog = (*Database)(nil)
