package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"autoindex/internal/btree"
	"autoindex/internal/faults"
	"autoindex/internal/schema"
	"autoindex/internal/storage"
	"autoindex/internal/value"
)

// DDL error classes the control plane distinguishes when driving the
// recommendation state machine (§4): ErrIndexExists and ErrIndexNotFound
// are terminal Error states; ErrLogFull and ErrLockTimeout are retried.
var (
	ErrIndexExists   = errors.New("engine: an index with the same name already exists")
	ErrIndexNotFound = errors.New("engine: index does not exist")
	ErrTableNotFound = errors.New("engine: table does not exist")
	ErrColumnInUse   = errors.New("engine: column is referenced by a user index")
	ErrLogFull       = errors.New("engine: transaction log full during index build")
	// ErrBuildAborted is an online index build interrupted mid-flight
	// (failover, DTA abort signal, injected chaos); like ErrLogFull and
	// ErrLockTimeout it is transient and retried with backoff.
	ErrBuildAborted = errors.New("engine: online index build aborted")
)

// CreateTable creates an empty table. Tables with a primary key are
// clustered on it; others are heaps.
func (d *Database) CreateTable(def schema.Table) error {
	if err := def.Validate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, exists := d.tables[key]; exists {
		return fmt.Errorf("engine: table %q already exists", def.Name)
	}
	t := &tableData{def: &def}
	if len(def.PrimaryKey) > 0 {
		t.clustered = btree.New(btree.DefaultOrder)
	} else {
		t.heap = storage.NewHeap(def.RowWidth())
	}
	d.tables[key] = t
	return nil
}

// IndexBuildOptions controls how CreateIndex runs.
type IndexBuildOptions struct {
	// Online builds without blocking concurrent statements (the only mode
	// the auto-indexing service uses).
	Online bool
	// Resumable allows pausing at log-space boundaries with log truncation
	// in between (§8.3's resumable index create).
	Resumable bool
}

// IndexBuildReport describes a completed build.
type IndexBuildReport struct {
	Duration  time.Duration
	LogBytes  int64
	Pauses    int
	SizeBytes int64
}

// CreateIndex builds a non-clustered index. The build scans the base
// table, sorts the entries (charged as virtual build time scaled by the
// tier's resources), and generates transaction log proportional to the
// index size. A non-resumable build whose log exceeds the configured log
// space fails with ErrLogFull (§8.3).
func (d *Database) CreateIndex(def schema.IndexDef, opts IndexBuildOptions) error {
	_, err := d.CreateIndexWithReport(def, opts)
	return err
}

// CreateIndexWithReport is CreateIndex returning build telemetry.
func (d *Database) CreateIndexWithReport(def schema.IndexDef, opts IndexBuildOptions) (IndexBuildReport, error) {
	injector := d.faultInjector() // read before taking d.mu (not reentrant)
	reg := d.Metrics()
	d.mu.Lock()
	t, ok := d.tables[strings.ToLower(def.Table)]
	if !ok {
		d.mu.Unlock()
		return IndexBuildReport{}, fmt.Errorf("%w: %s", ErrTableNotFound, def.Table)
	}
	if _, exists := d.indexes[strings.ToLower(def.Name)]; exists {
		d.mu.Unlock()
		return IndexBuildReport{}, fmt.Errorf("%w: %s", ErrIndexExists, def.Name)
	}
	if err := def.Validate(t.def); err != nil {
		d.mu.Unlock()
		return IndexBuildReport{}, err
	}
	if def.Kind == schema.Clustered {
		d.mu.Unlock()
		return IndexBuildReport{}, fmt.Errorf("engine: only non-clustered indexes can be created online")
	}
	if in := injector; in != nil {
		// Chaos fault points fire after the well-known validation errors so
		// an injected failure always means "the build itself failed", never
		// masks a terminal condition. Errors are wrapped exactly as real
		// call sites wrap them, so the control plane's errors.Is
		// classification is what gets exercised.
		switch {
		case in.Should(faults.IndexBuildLockTimeout):
			d.mu.Unlock()
			reg.Counter(descFaultTrips).Inc()
			reg.Counter(descLockTimeouts).Inc()
			d.clock.Sleep(5 * time.Second) // burned the lock-wait budget
			return IndexBuildReport{}, fmt.Errorf("create index %s: %w", def.Name, ErrLockTimeout)
		case in.Should(faults.IndexBuildLogFull):
			d.mu.Unlock()
			reg.Counter(descFaultTrips).Inc()
			// The failed build consumed time and log before hitting the wall.
			sz := def.EstimatedSizeBytes(t.def, t.rowCount)
			d.clock.Sleep(d.buildDuration(sz) / 2)
			return IndexBuildReport{LogBytes: sz / 2}, fmt.Errorf("create index %s: log growth race: %w", def.Name, ErrLogFull)
		case in.Should(faults.IndexBuildAbort):
			d.mu.Unlock()
			reg.Counter(descFaultTrips).Inc()
			sz := def.EstimatedSizeBytes(t.def, t.rowCount)
			d.clock.Sleep(d.buildDuration(sz) / 4)
			return IndexBuildReport{}, fmt.Errorf("create index %s: %w", def.Name, ErrBuildAborted)
		}
	}

	sizeBytes := def.EstimatedSizeBytes(t.def, t.rowCount)
	report := IndexBuildReport{LogBytes: sizeBytes, SizeBytes: sizeBytes}
	if sizeBytes > d.cfg.LogSpaceBytes {
		if !opts.Resumable {
			d.mu.Unlock()
			// The failed build still consumed time and log.
			d.clock.Sleep(d.buildDuration(sizeBytes) / 2)
			return report, fmt.Errorf("%w: index %s needs %d bytes of log, %d available",
				ErrLogFull, def.Name, sizeBytes, d.cfg.LogSpaceBytes)
		}
		report.Pauses = int(sizeBytes / d.cfg.LogSpaceBytes)
	}

	ix := &indexData{
		def:       def.Clone(),
		tree:      btree.New(btree.DefaultOrder),
		createdAt: d.clock.Now(),
		sizeBytes: sizeBytes,
	}
	ix.resolve(t.def)
	insert := func(row value.Row, loc value.Key) {
		k, p := ix.entryFor(row, loc)
		ix.tree.Insert(k, p)
	}
	if t.clustered != nil {
		t.clustered.Ascend(func(e btree.Entry) bool {
			insert(e.Payload, e.Key)
			return true
		})
	} else {
		t.heap.Scan(func(rid storage.RID, row value.Row) bool {
			insert(row, value.Key{value.NewInt(int64(rid))})
			return true
		})
	}
	d.putIndex(ix)
	d.noteSchemaChange()
	d.mu.Unlock()

	// The build's virtual duration: scan + sort + write, scaled down by
	// the tier's resources; resumable pauses add overhead.
	dur := d.buildDuration(sizeBytes) * time.Duration(1+report.Pauses/4+1) / 2
	report.Duration = dur
	d.clock.Sleep(dur)
	reg.Counter(descIndexBuilds).Inc()
	reg.Histogram(descIndexBuildMillis).ObserveDuration(dur)
	return report, nil
}

// buildDuration maps bytes processed to virtual build time for this tier.
func (d *Database) buildDuration(bytes int64) time.Duration {
	// ~64 MB/s of build throughput per core.
	perCore := 64.0 * float64(1<<20)
	secs := float64(bytes) / (perCore * d.cfg.Tier.CPUCores())
	if secs < 0.1 {
		secs = 0.1
	}
	return time.Duration(secs * float64(time.Second))
}

// DropIndexOptions controls DropIndex locking behaviour.
type DropIndexOptions struct {
	// LowPriority requests the exclusive schema lock at low priority so
	// the drop never blocks concurrent statements; on timeout the caller
	// backs off and retries (§8.3). This is how the control plane reverts.
	LowPriority bool
	// LockTimeout bounds a low-priority wait (default 5s).
	LockTimeout time.Duration
}

// DropIndex removes a non-clustered index.
func (d *Database) DropIndex(name string, opts DropIndexOptions) error {
	d.mu.RLock()
	ix, ok := d.indexes[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrIndexNotFound, name)
	}
	timeout := opts.LockTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	reg := d.Metrics()
	if in := d.faultInjector(); in != nil && in.Should(faults.DropLockTimeout) {
		// An injected convoy: the low-priority request burns its wait
		// budget behind shared holders that never clear in time.
		reg.Counter(descFaultTrips).Inc()
		reg.Counter(descLockTimeouts).Inc()
		d.clock.Sleep(timeout)
		return fmt.Errorf("drop index %s: %w", name, ErrLockTimeout)
	}
	release, waited, err := d.locks.AcquireExclusive(ix.def.Table, opts.LowPriority, timeout)
	if err != nil {
		reg.Counter(descLockTimeouts).Inc()
		return err
	}
	reg.Histogram(descLockWaitMillis).ObserveDuration(waited)
	defer release()
	d.mu.Lock()
	d.removeIndex(name)
	d.noteSchemaChange()
	d.mu.Unlock()
	d.usage.Forget(name)
	reg.Counter(descIndexDrops).Inc()
	return nil
}

// DropColumn drops a table column, force-dropping any auto-created indexes
// that reference it (the cascade the service added so auto-indexes never
// block customer schema changes, §8.3). It fails with ErrColumnInUse if a
// user-created index references the column.
func (d *Database) DropColumn(table, column string) error {
	d.mu.Lock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTableNotFound, table)
	}
	ord := t.def.ColumnIndex(column)
	if ord < 0 {
		d.mu.Unlock()
		return fmt.Errorf("engine: no column %q in table %q", column, table)
	}
	for _, pk := range t.def.PrimaryKey {
		if strings.EqualFold(pk, column) {
			d.mu.Unlock()
			return fmt.Errorf("engine: cannot drop primary key column %q", column)
		}
	}
	// Scan the table's name-sorted indexes so both the cascade drop
	// order and which index an ErrColumnInUse names are deterministic.
	var toDrop []string
	for _, ix := range t.indexes {
		if ix.def.HasColumn(column) {
			if !ix.def.AutoCreated {
				d.mu.Unlock()
				return fmt.Errorf("%w: index %s", ErrColumnInUse, ix.def.Name)
			}
			toDrop = append(toDrop, ix.def.Name)
		}
	}
	// Cascade: force-drop the auto-created indexes.
	for _, n := range toDrop {
		d.removeIndex(n)
		d.usage.Forget(n)
	}
	// Remove the column from rows and metadata.
	newCols := append([]schema.Column(nil), t.def.Columns[:ord]...)
	newCols = append(newCols, t.def.Columns[ord+1:]...)
	strip := func(r value.Row) value.Row {
		out := make(value.Row, 0, len(r)-1)
		out = append(out, r[:ord]...)
		out = append(out, r[ord+1:]...)
		return out
	}
	if t.clustered != nil {
		repl := btree.New(btree.DefaultOrder)
		t.clustered.Ascend(func(e btree.Entry) bool {
			repl.Insert(e.Key, strip(e.Payload))
			return true
		})
		t.clustered = repl
	} else {
		old := t.heap
		t.heap = storage.NewHeap(t.def.RowWidth())
		old.Scan(func(_ storage.RID, r value.Row) bool {
			t.heap.Insert(strip(r))
			return true
		})
	}
	// The definition may be shared copy-on-write with archetype siblings
	// (see Stamp); fork a private copy before mutating it so the drop
	// is invisible to every other tenant stamped from the same template.
	forked := cloneTableDef(t.def)
	forked.Columns = newCols
	t.def = forked
	// Remaining indexes reference ordinals; rebuild their ordinal maps
	// and their trees, since payload ordinals shifted.
	for _, ix := range t.indexes {
		ix.resolve(t.def)
		repl := btree.New(btree.DefaultOrder)
		reinsert := func(row value.Row, loc value.Key) {
			k, p := ix.entryFor(row, loc)
			repl.Insert(k, p)
		}
		if t.clustered != nil {
			t.clustered.Ascend(func(e btree.Entry) bool {
				reinsert(e.Payload, e.Key)
				return true
			})
		} else {
			t.heap.Scan(func(rid storage.RID, row value.Row) bool {
				reinsert(row, value.Key{value.NewInt(int64(rid))})
				return true
			})
		}
		ix.tree = repl
	}
	delete(d.colStat, statKey(table, column))
	d.noteSchemaChange()
	d.mu.Unlock()
	return nil
}

// RenameColumn renames a table column. User-created indexes referencing
// the column follow the rename (the customer's ALTER carries its own
// dependent objects), while auto-created indexes referencing it are
// force-dropped, mirroring the DropColumn cascade: service-owned state
// must never block or survive a customer schema migration (§8.3).
// In-flight recommendations still naming the old column then fail
// validation with schema.ErrColumnNotFound — the race the migration
// scenario drives through the control plane's state machine.
func (d *Database) RenameColumn(table, oldName, newName string) error {
	d.mu.Lock()
	t, ok := d.tables[strings.ToLower(table)]
	if !ok {
		d.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTableNotFound, table)
	}
	ord := t.def.ColumnIndex(oldName)
	if ord < 0 {
		d.mu.Unlock()
		return fmt.Errorf("engine: no column %q in table %q", oldName, table)
	}
	if t.def.ColumnIndex(newName) >= 0 {
		d.mu.Unlock()
		return fmt.Errorf("engine: column %q already exists in table %q", newName, table)
	}
	// Scan the table's name-sorted indexes so the cascade drop order is
	// deterministic (same discipline as DropColumn).
	var toDrop []string
	var toRename []*indexData
	for _, ix := range t.indexes {
		if ix.def.HasColumn(oldName) {
			if ix.def.AutoCreated {
				toDrop = append(toDrop, ix.def.Name)
			} else {
				toRename = append(toRename, ix)
			}
		}
	}
	for _, n := range toDrop {
		d.removeIndex(n)
		d.usage.Forget(n)
	}
	renameIn := func(cols []string) {
		for i, c := range cols {
			if strings.EqualFold(c, oldName) {
				cols[i] = newName
			}
		}
	}
	for _, ix := range toRename {
		// ix.def is a private Clone (made at CreateIndex), safe to mutate;
		// ordinals are unchanged so trees and ordinal maps stay valid.
		renameIn(ix.def.KeyColumns)
		renameIn(ix.def.IncludedColumns)
	}
	// The table definition may be shared copy-on-write with archetype
	// siblings; fork before mutating, as in DropColumn.
	forked := cloneTableDef(t.def)
	forked.Columns[ord].Name = newName
	renameIn(forked.PrimaryKey)
	t.def = forked
	if st, ok := d.colStat[statKey(table, oldName)]; ok {
		d.colStat[statKey(table, newName)] = st
		delete(d.colStat, statKey(table, oldName))
	}
	d.noteSchemaChange()
	d.mu.Unlock()
	return nil
}
