package controlplane

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/faults"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
)

// chaosCase is a single-database chaos harness: a control plane over a
// crash-prone store, engine DDL faults, and a workload driver.
type chaosCase struct {
	clock    *sim.VirtualClock
	db       *engine.Database
	mem      Store
	cfg      Config
	runner   *CrashRunner
	engIn    *faults.Injector
	crashIn  *faults.Injector
	baseline []schema.IndexDef
}

// newChaosCase builds the harness for one schedule seed. Fault and crash
// rates derive from the seed, so the 200-case property run covers
// everything from calm to hostile schedules.
func newChaosCase(t *testing.T, seed int64) *chaosCase {
	t.Helper()
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = 2 * time.Hour
	cfg.SnapshotEvery = time.Hour
	cfg.ValidationWindow = 3 * time.Hour
	cfg.RetryBackoff = 30 * time.Minute
	cfg.DropScanEvery = 12 * time.Hour

	db := engine.New(engine.DefaultConfig("chaosdb", engine.TierPremium, 1000+seed), clock)
	mustExec(t, db, `CREATE TABLE items (id BIGINT NOT NULL, cat BIGINT, price FLOAT, PRIMARY KEY (id))`)
	for i := 0; i < 240; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO items (id, cat, price) VALUES (%d, %d, %d.5)`, i, i%40, i))
	}
	db.RebuildAllStats()
	// A pre-existing auto-created index the workload never touches: the
	// drop scan (and a synthetic drop record) will want it gone.
	pre := schema.IndexDef{Name: "auto_ix_pre", Table: "items", KeyColumns: []string{"price"}, AutoCreated: true}
	if err := db.CreateIndex(pre, engine.IndexBuildOptions{}); err != nil {
		t.Fatal(err)
	}
	baseline := db.IndexDefs()

	rates := sim.NewRNG(seed).Child("chaos-rates")
	faultRate := 0.35 * rates.Float64()
	crashRate := 0.25 * rates.Float64()
	engIn := faults.New(seed, "engine/chaosdb", map[faults.Point]float64{
		faults.IndexBuildLogFull:     faultRate,
		faults.IndexBuildLockTimeout: faultRate,
		faults.IndexBuildAbort:       faultRate,
		faults.DropLockTimeout:       faultRate,
	})
	db.SetFaultInjector(engIn)
	crashIn := faults.New(seed, "plane", map[faults.Point]float64{
		faults.PlaneCrashBeforeSave: crashRate,
		faults.PlaneCrashAfterSave:  crashRate,
	})
	mem := NewMemStore()
	store := NewCrashStore(mem, crashIn)
	build := func() *ControlPlane {
		cp := New(cfg, clock, store, nil)
		cp.Manage(db, "srv", Settings{AutoCreate: true, AutoDrop: true})
		return cp
	}
	return &chaosCase{
		clock: clock, db: db, mem: mem, cfg: cfg,
		runner: NewCrashRunner(build(), build), engIn: engIn, crashIn: crashIn,
		baseline: baseline,
	}
}

// seedRecords injects hand-built Active records (a create and a drop), so
// every schedule exercises both actions even if analysis files nothing.
func (c *chaosCase) seedRecords() {
	now := c.clock.Now()
	c.mem.SaveRecord(&Record{
		Recommendation: core.Recommendation{
			ID: "rec-chaosdb-000900", Database: "chaosdb", Action: core.ActionCreateIndex,
			Index:     schema.IndexDef{Name: "ix_items_cat", Table: "items", KeyColumns: []string{"cat"}},
			Source:    core.SourceDTA,
			CreatedAt: now,
		},
		State: StateActive, UpdatedAt: now,
	})
	c.mem.SaveRecord(&Record{
		Recommendation: core.Recommendation{
			ID: "rec-chaosdb-000901", Database: "chaosdb", Action: core.ActionDropIndex,
			Index:     schema.IndexDef{Name: "auto_ix_pre", Table: "items", KeyColumns: []string{"price"}, AutoCreated: true},
			Source:    core.SourceDTA,
			CreatedAt: now,
		},
		State: StateActive, UpdatedAt: now,
	})
}

// run drives hours of workload + control-plane steps under injection.
func (c *chaosCase) run(t *testing.T, hours, queriesPerHour int) {
	t.Helper()
	for h := 0; h < hours; h++ {
		for q := 0; q < queriesPerHour; q++ {
			mustExec(t, c.db, fmt.Sprintf(`SELECT id, price FROM items WHERE cat = %d`, (h*7+q)%40))
		}
		c.clock.Advance(time.Hour)
		c.runner.Step()
	}
}

// inFlight lists records that are neither terminal nor waiting in Active.
func (c *chaosCase) inFlight() []*Record {
	return c.mem.Records(func(r *Record) bool {
		return !r.State.Terminal() && r.State != StateActive
	})
}

// drain disables injection and steps until every record settles. The
// analysis and drop-scan clocks are frozen each hour so draining resolves
// existing records without filing new ones.
func (c *chaosCase) drain(t *testing.T) {
	t.Helper()
	c.engIn.Disable()
	c.crashIn.Disable()
	for h := 0; h < 21*24 && len(c.inFlight()) > 0; h++ {
		now := c.clock.Now()
		for _, ds := range c.mem.Databases() {
			ds.LastAnalysis = now
			ds.LastDropScan = now
			c.mem.SaveDatabase(ds)
		}
		c.clock.Advance(time.Hour)
		c.runner.Step()
	}
}

// check runs the invariant checker and fails the test on any violation.
func (c *chaosCase) check(t *testing.T) {
	t.Helper()
	if left := c.inFlight(); len(left) > 0 {
		for _, r := range left {
			t.Errorf("record %s failed to settle: %s (substate %q, attempts %d)", r.ID, r.State, r.SubState, r.Attempts)
		}
	}
	targets := map[string]InvariantTarget{"chaosdb": {DB: c.db, Baseline: c.baseline}}
	for _, v := range CheckInvariants(c.mem, targets, c.cfg, c.clock.Now()) {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestChaosPropertySchedules is the tentpole property test: 200 seeded
// random fault schedules — engine DDL failures and control-plane crashes
// at rates drawn per schedule — and after a drain, every terminal state
// must satisfy the invariant checker: nothing stuck, no duplicate or
// orphaned auto-indexes, reverts restore the pre-change index set.
func TestChaosPropertySchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property run is slow")
	}
	for seed := int64(0); seed < 200; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule-%03d", seed), func(t *testing.T) {
			t.Parallel()
			c := newChaosCase(t, seed)
			c.seedRecords()
			c.run(t, 30, 5)
			c.drain(t)
			c.check(t)
		})
	}
}

// TestChaosCrashesActuallyHappen guards the property test against a
// silent no-op: across the schedule space, crashes and engine faults must
// actually fire.
func TestChaosCrashesActuallyHappen(t *testing.T) {
	c := newChaosCase(t, 7) // seed 7 draws high rates
	c.seedRecords()
	c.run(t, 20, 5)
	crashes := int64(0)
	for _, n := range c.runner.Crashes {
		crashes += n
	}
	if crashes == 0 {
		t.Error("no control-plane crashes fired")
	}
	if c.engIn.TotalFired() == 0 {
		t.Error("no engine faults fired")
	}
	c.drain(t)
	c.check(t)
}

// driveRun replays a fixed workload against a fresh database and a
// control plane persisted in dir, optionally restarting the control
// plane from the journal after every step — the persist.go round-trip.
// It returns each record's terminal outcome and the final index set.
func driveRun(t *testing.T, dir string, restartEachHour bool) (map[string]RecState, []string) {
	t.Helper()
	clock := sim.NewClock()
	cfg := DefaultConfig()
	cfg.AnalyzeEvery = 2 * time.Hour
	cfg.SnapshotEvery = time.Hour
	cfg.ValidationWindow = 3 * time.Hour
	db := engine.New(engine.DefaultConfig("rrdb", engine.TierPremium, 4242), clock)
	mustExec(t, db, `CREATE TABLE items (id BIGINT NOT NULL, cat BIGINT, price FLOAT, PRIMARY KEY (id))`)
	for i := 0; i < 600; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO items (id, cat, price) VALUES (%d, %d, %d.5)`, i, i%60, i))
	}
	db.RebuildAllStats()

	path := filepath.Join(dir, "journal.json")
	open := func() *ControlPlane {
		fs, err := NewFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		cp := New(cfg, clock, fs, nil)
		cp.Manage(db, "srv", Settings{AutoCreate: true, AutoDrop: true})
		return cp
	}
	cp := open()
	for h := 0; h < 30; h++ {
		for q := 0; q < 10; q++ {
			mustExec(t, db, fmt.Sprintf(`SELECT id, price FROM items WHERE cat = %d`, (h*13+q)%60))
		}
		clock.Advance(time.Hour)
		cp.Step()
		if restartEachHour {
			// Drop the in-memory plane on the floor; the journal is the
			// only state the next incarnation gets.
			cp = open()
		}
	}
	outcomes := make(map[string]RecState)
	fs, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fs.Records(nil) {
		outcomes[r.ID] = r.State
	}
	var sigs []string
	for _, def := range db.IndexDefs() {
		sigs = append(sigs, def.Signature())
	}
	sort.Strings(sigs)
	return outcomes, sigs
}

// TestCrashRecoveryRoundTrip runs the same workload twice — once with a
// long-lived control plane, once restarting a fresh control plane from
// the persist.go journal after every single step — and asserts both
// converge to identical record outcomes and identical index sets. All
// decision state must therefore live in the persisted Store, not in
// control-plane memory.
func TestCrashRecoveryRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip run is slow")
	}
	ref, refSigs := driveRun(t, t.TempDir(), false)
	got, gotSigs := driveRun(t, t.TempDir(), true)
	if len(ref) == 0 {
		t.Fatal("reference run produced no records")
	}
	for id, st := range ref {
		if got[id] != st {
			t.Errorf("record %s: reference %s, restart-per-step %s", id, st, got[id])
		}
	}
	for id := range got {
		if _, ok := ref[id]; !ok {
			t.Errorf("restart run invented record %s (%s)", id, got[id])
		}
	}
	if strings.Join(refSigs, "\n") != strings.Join(gotSigs, "\n") {
		t.Errorf("index sets diverged:\nreference:\n%s\nrestart-per-step:\n%s",
			strings.Join(refSigs, "\n"), strings.Join(gotSigs, "\n"))
	}
}

// TestRecSeqRecoveredFromStore: a restarted control plane must continue
// the record ID sequence, not reissue IDs that would silently overwrite
// persisted records.
func TestRecSeqRecoveredFromStore(t *testing.T) {
	mem := NewMemStore()
	mem.SaveRecord(&Record{Recommendation: core.Recommendation{ID: "rec-db-000017", Database: "db"}, State: StateActive})
	mem.SaveRecord(&Record{Recommendation: core.Recommendation{ID: "rec-db-000005", Database: "db"}, State: StateSuccess})
	mem.SaveRecord(&Record{Recommendation: core.Recommendation{ID: "malformed"}, State: StateError})
	if got := recoverRecSeq(mem); got != 17 {
		t.Fatalf("recoverRecSeq = %d, want 17", got)
	}
	if got := recoverRecSeq(NewMemStore()); got != 0 {
		t.Fatalf("recoverRecSeq on empty store = %d, want 0", got)
	}
}

// TestClassifyImplementErrorWrapped is the errors.Is regression test: the
// engine annotates failures with %w context (and callers may wrap again),
// and classification must see through every layer. Sentinel equality
// would send all of these to terminal Error with an incident.
func TestClassifyImplementErrorWrapped(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("create index ix_x: %w", err) }
	rewrap := func(err error) error { return fmt.Errorf("step failed: %w", wrap(err)) }
	cases := []struct {
		name string
		err  error
		want errorClass
	}{
		{"log-full wrapped", wrap(engine.ErrLogFull), errClassTransient},
		{"log-full double-wrapped", rewrap(engine.ErrLogFull), errClassTransient},
		{"lock-timeout wrapped", wrap(engine.ErrLockTimeout), errClassTransient},
		{"build-aborted wrapped", wrap(engine.ErrBuildAborted), errClassTransient},
		{"index-exists wrapped", wrap(engine.ErrIndexExists), errClassWellKnown},
		{"index-not-found double-wrapped", rewrap(engine.ErrIndexNotFound), errClassWellKnown},
		{"table-not-found wrapped", wrap(engine.ErrTableNotFound), errClassWellKnown},
		{"unknown", fmt.Errorf("disk caught fire"), errClassUnrecognized},
	}
	for _, tc := range cases {
		if got := classifyImplementError(tc.err); got != tc.want {
			t.Errorf("%s: classified %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestWrappedTransientErrorRetriesEndToEnd drives the classification
// through handleImplementError: a deeply wrapped transient failure must
// land in Retry with backoff, not terminal Error.
func TestWrappedTransientErrorRetriesEndToEnd(t *testing.T) {
	cp := New(DefaultConfig(), sim.NewClock(), NewMemStore(), nil)
	r := &Record{
		Recommendation: core.Recommendation{ID: "rec-db-000001", Database: "db", Action: core.ActionCreateIndex},
		State:          StateImplementing,
	}
	err := fmt.Errorf("outer: %w", fmt.Errorf("create index ix: log growth race: %w", engine.ErrLogFull))
	cp.handleImplementError(r, err, StateImplementing, cp.clock.Now())
	if r.State != StateRetry {
		t.Fatalf("wrapped transient error left record in %s, want Retry", r.State)
	}
	if r.RetryTarget != StateImplementing {
		t.Fatalf("RetryTarget = %s, want Implementing", r.RetryTarget)
	}
	if len(cp.store.Incidents()) != 0 {
		t.Fatal("transient error must not raise an incident")
	}
}

// TestAuditStuckRuleMirrorsServices pins the audit to the services that
// bound each wait: healthService watches everything mid-flight by
// StuckAfter and deliberately skips Active (waiting for a human), which
// only expiryService's creation-time TTL bounds. An audit that applied
// StuckAfter to Active records flagged every recommendation on a
// database with auto-implementation off.
func TestAuditStuckRuleMirrorsServices(t *testing.T) {
	c := newChaosCase(t, 1)
	start := c.clock.Now()
	save := func(id string, state RecState) {
		c.mem.SaveRecord(&Record{
			Recommendation: core.Recommendation{
				ID: id, Database: "chaosdb", Action: core.ActionCreateIndex,
				Index:     schema.IndexDef{Name: "ix_" + id, Table: "items", KeyColumns: []string{"cat"}},
				Source:    core.SourceDTA,
				CreatedAt: start,
			},
			State: state, UpdatedAt: start,
		})
	}
	save("rec-active", StateActive)
	save("rec-validating", StateValidating)
	targets := map[string]InvariantTarget{"chaosdb": {DB: c.db, Baseline: c.baseline}}
	stuck := func(age time.Duration) []string {
		var ids []string
		for _, v := range CheckInvariants(c.mem, targets, c.cfg, start.Add(age)) {
			if v.Rule == RuleStuck {
				ids = append(ids, strings.Fields(v.Detail)[1])
			}
		}
		return ids
	}
	for _, tc := range []struct {
		age  time.Duration
		want string
	}{
		{c.cfg.StuckAfter, ""},
		{c.cfg.StuckAfter + time.Hour, "rec-validating"},
		{c.cfg.RecommendationTTL, "rec-validating"},
		{c.cfg.RecommendationTTL + time.Hour, "rec-active rec-validating"},
	} {
		if got := strings.Join(stuck(tc.age), " "); got != tc.want {
			t.Errorf("at age %s: stuck records %q, want %q", tc.age, got, tc.want)
		}
	}
}
