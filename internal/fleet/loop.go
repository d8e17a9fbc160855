package fleet

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/metrics"
	"autoindex/internal/sim"
	"autoindex/internal/telemetry"
	"autoindex/internal/workload"
)

// tenantPhase is a slot's residency state.
type tenantPhase uint8

const (
	// phaseCold tenants were never constructed (no activity yet).
	phaseCold tenantPhase = iota
	// phaseResident tenants are fully materialized.
	phaseResident
	// phaseHibernated tenants live as one snapshot blob plus shells.
	phaseHibernated
	// phaseDone tenants finished (streamed their line) and were freed.
	phaseDone
)

// slot is the loop's per-tenant bookkeeping: ~100 bytes while cold or
// done, a snapshot blob while hibernated, a full tenant while resident.
type slot struct {
	name string
	auto bool
	// seed and arch stamp a cold slot on its first active hour.
	seed int64
	arch *workload.Archetype

	phase    tenantPhase
	tn       *workload.Tenant
	clock    *sim.VirtualClock
	snapshot []byte
	// failover is the tenant's own failover stream, derived on first use:
	// a shared stream would interleave draws in worker-completion order.
	failover *sim.RNG

	// lastActive is the most recent hour the tenant replayed workload
	// (the LRU eviction key); finalHour is the last hour the activity
	// model will ever wake it (-1: never), after which it is swept.
	lastActive int
	finalHour  int

	activeHours int
}

// activeAt decides whether a tenant replays workload in a given hour. It
// is a pure function of (fleet seed, tenant name, hour) — no RNG object,
// no consumed state — so 100k tenants times hundreds of hours cost one
// short hash chain each, any tenant's schedule can be (re)computed at any
// time (the streaming reporter precomputes each tenant's final hour), and
// the answer can never depend on residency or worker scheduling. The mix
// is FNV-64a over the name folded with splitmix64 finalizers.
func activeAt(seed int64, name string, hour int, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	h ^= uint64(hour) * 0xff51afd7ed558ccd
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) < fraction
}

// run is the in-flight state of the hour-barrier loop. RunOps and RunScale
// are that one loop over different populations: each builds its slots,
// sets the first block of fields, calls play and shapes the result. What
// they do differently is data here, not a branch in the loop: a
// materialized fleet is the degenerate scale run — every slot resident
// from hour 0, fraction 1, no cap, a final hour that never comes — so
// stamping, hibernation and streaming are inert for it, not bypassed.
type run struct {
	// seed keys the activity model and the per-tenant streams.
	seed    int64
	workers int
	hours   int
	// fraction is the per-tenant per-hour activity probability.
	fraction float64
	// statements is the per-tenant hourly budget; statementsFor, when set,
	// overrides it (negative: no override) from parallel workers.
	statements    int
	statementsFor func(hour int, tenant string) int
	// failoverProb is the per-tenant per-day failover probability.
	failoverProb float64
	// residentCap bounds the resident set across a barrier; <= 0: no cap.
	residentCap int
	// park parks every resident engine at every barrier, pressured or not:
	// all tenants then cross it with an empty plan-cost cache and expired
	// lock leases, so a rehydrated tenant matches its never-hibernated twin
	// and output is independent of residentCap. It is the one behaviour
	// (not data) an entry point chooses: RunScale sets it; RunOps cannot,
	// because the resets would move the costcache counters in its
	// deterministic metrics snapshot.
	park bool
	// stream receives one line per swept tenant.
	stream io.Writer
	// before fires at the barrier ahead of a replayed hour; barrier after
	// its control-plane step (fleet growth, window statistics, hooks).
	before  func(hour int)
	barrier func(hour int) error
	// maxDrain bounds the post-run drain; <= 0 means three weeks, which
	// fits the validation window plus exhausted retries and stuck sweeps.
	maxDrain int

	region   *sim.VirtualClock
	reg      *metrics.Registry
	planeCfg controlplane.Config
	slots    []*slot

	// mem is the backing store, unwrapped: reads through it never trip a
	// crash point. runner owns the current control-plane incarnation and
	// steps it; ch is nil unless chaos is on.
	mem    controlplane.Store
	runner *controlplane.CrashRunner
	ch     *chaosHarness
	// baselines holds each enrolled tenant's pre-tuning index set; non-nil
	// exactly when the run ends in an invariant audit.
	baselines map[string]controlplane.InvariantTarget

	everActive, completed, peakResident       int
	tenantHours                               int64
	hibernations, rehydrations, snapshotBytes int64
	peakHeap                                  uint64
	drainHours                                int
	violations                                []controlplane.Violation
	chaos                                     *ChaosReport
}

// boot builds the store, the optional chaos harness and the control
// plane; chaosSeed keys every injector. The plane always runs under a
// crash runner, so a recovered restart swaps in the rebuilt incarnation
// transparently; only the chaos harness makes the store crash, so without
// one the rebuild is never called.
func (r *run) boot(chaos ChaosConfig, chaosSeed int64, audit bool) {
	r.mem = controlplane.NewMemStore()
	store := r.mem
	var hub *telemetry.Hub
	if chaos.Enabled {
		r.ch = newChaosHarness(chaos, chaosSeed, r.mem)
		store, hub = r.ch.wrapped, r.ch.hub
		r.maxDrain = chaos.MaxDrainHours
	}
	if audit || chaos.Enabled {
		r.baselines = make(map[string]controlplane.InvariantTarget)
	}
	r.runner = controlplane.NewCrashRunner(controlplane.New(r.planeCfg, r.region, store, hub),
		func() *controlplane.ControlPlane { return r.ch.rebuild(r.planeCfg, r.region) })
}

// enroll registers a resident slot's tenant with the current plane
// incarnation, capturing its index baseline first when the run audits.
func (r *run) enroll(st *slot) {
	set := controlplane.Settings{AutoCreate: st.auto, AutoDrop: st.auto}
	if r.baselines != nil {
		r.baselines[st.name] = controlplane.InvariantTarget{DB: st.tn.DB, Baseline: st.tn.DB.IndexDefs()}
	}
	if r.ch != nil {
		r.ch.enroll(st.tn, set)
	}
	r.runner.Plane.Manage(st.tn.DB, "server-0", set)
}

// alignClocks advances the region clock and every given tenant clock to
// their common maximum. Called at barriers only (no tenant worker
// running): online index builds and B-instance replays advance only the
// affected tenant's clock, and the maximum over all clocks is independent
// of the order tenants executed in, so re-alignment preserves determinism.
func alignClocks(region *sim.VirtualClock, clocks []*sim.VirtualClock) {
	max := region.Now()
	for _, c := range clocks {
		if t := c.Now(); t.After(max) {
			max = t
		}
	}
	region.AdvanceTo(max)
	for _, c := range clocks {
		c.AdvanceTo(max)
	}
}

// residents lists the resident slots in slot order.
func (r *run) residents() []*slot {
	var out []*slot
	for _, st := range r.slots {
		if st.phase == phaseResident {
			out = append(out, st)
		}
	}
	return out
}

// play runs the configured hours and, when the run audits, drains it and
// checks the settled fleet against the invariants. The checker audits
// live engine catalogs (and the chaos report reads live query stores), so
// every enrolled tenant — hibernated, or swept with its snapshot kept —
// is brought back to resident first.
func (r *run) play() error {
	for h := 0; h < r.hours; h++ {
		if err := r.hour(h, true); err != nil {
			return err
		}
	}
	if r.baselines == nil {
		return nil
	}
	if err := r.drain(); err != nil {
		return err
	}
	var need []*slot
	for _, st := range r.slots {
		if st.snapshot != nil {
			st.phase = phaseHibernated
			need = append(need, st)
		}
	}
	if err := r.materialize(need); err != nil {
		return err
	}
	r.violations = controlplane.CheckInvariants(r.mem, r.baselines, r.planeCfg, r.region.Now())
	if r.ch != nil {
		r.chaos = r.ch.report(r.runner.Crashes, r.drainHours, r.violations)
	}
	return nil
}

// hour is the whole barrier sequence for virtual hour h. With replay off
// (the drain) awake tenants are still stepped but replay no workload, and
// the entry point's callbacks stay silent.
//
// The stepped set is the awake tenants plus those whose recommendation
// records are still live. Both inputs are residency-independent, so so is
// everything downstream.
func (r *run) hour(h int, replay bool) error {
	if replay && r.before != nil {
		r.before(h)
	}
	open := r.runner.Plane.DatabasesWithOpenRecords()
	var awake, need []*slot
	rehydrated := int64(0)
	for _, st := range r.slots {
		up := st.finalHour >= h && activeAt(r.seed, st.name, h, r.fraction)
		if up {
			awake = append(awake, st)
		}
		if st.phase == phaseHibernated && (up || open[st.name]) {
			rehydrated++
			need = append(need, st)
		} else if st.phase == phaseCold && up {
			need = append(need, st)
		}
	}
	if err := r.materialize(need); err != nil {
		return err
	}
	r.rehydrations += rehydrated
	r.reg.Counter(descRehydrations).Add(rehydrated)

	resident := r.residents()
	include := make(map[string]bool, len(awake))
	clocks := make([]*sim.VirtualClock, len(resident))
	for i, st := range resident {
		clocks[i] = st.clock
		if open[st.name] {
			include[st.name] = true
		}
	}
	for _, st := range awake {
		include[st.name] = true
	}
	if replay {
		forEachObserved(r.reg, r.workers, len(awake), func(k int) {
			st := awake[k]
			n := r.statements
			if r.statementsFor != nil {
				if v := r.statementsFor(h, st.name); v >= 0 {
					n = v
				}
			}
			st.tn.Run(0, n)
			st.lastActive = h
			st.activeHours++
			if r.failoverProb <= 0 {
				return
			}
			if st.failover == nil {
				st.failover = tenantStream(r.seed, st.name, "ops/failover")
			}
			if st.failover.Float64() < r.failoverProb/24 {
				st.tn.DB.Failover()
				r.reg.Counter(descFailovers).Inc()
			}
		})
		r.tenantHours += int64(len(awake))
		r.reg.Counter(descTenantHours).Add(int64(len(awake)))
	}

	r.region.Advance(time.Hour)
	alignClocks(r.region, clocks) // tenants catch up to the region hour tick
	r.runner.StepFor(func(name string) bool { return include[name] })
	alignClocks(r.region, clocks) // region catches up to index-build time on tenants
	if r.park {
		for _, st := range resident {
			st.tn.DB.Park()
		}
	}
	if replay && r.barrier != nil {
		if err := r.barrier(h); err != nil {
			return err
		}
	}

	open = r.runner.Plane.DatabasesWithOpenRecords()
	r.sweepDone(h, open)
	r.evict(open)
	r.observeResidency()
	return nil
}

// materialize brings every slot in need (cold or hibernated, in slot
// order) to resident, in parallel, then enrolls newly constructed
// tenants with the control plane serially in that order. A hibernated
// clock was aligned at its last barrier and the region clock only moves
// forward, so AdvanceTo(region.Now()) lands it exactly where continuous
// alignment would have.
func (r *run) materialize(need []*slot) error {
	built := make([]bool, len(need))
	errs := make([]error, len(need))
	regionNow := r.region.Now()
	forEach(r.workers, len(need), func(k int) {
		st := need[k]
		if st.phase == phaseCold {
			clock := sim.NewVirtualClock(regionNow)
			tn, err := workload.NewTenantFromArchetype(st.arch, st.name, st.seed, clock)
			if err != nil {
				errs[k] = fmt.Errorf("fleet: stamping tenant %s: %w", st.name, err)
				return
			}
			tn.DB.SetMetrics(r.reg)
			st.tn, st.clock = tn, clock
			built[k] = true
		} else {
			if err := rehydrateTenant(st.tn, st.snapshot); err != nil {
				errs[k] = fmt.Errorf("fleet: rehydrating tenant %s: %w", st.name, err)
				return
			}
			st.snapshot = nil
			st.clock.AdvanceTo(regionNow)
		}
		st.phase = phaseResident
	})
	for k, err := range errs {
		if err != nil {
			return err
		}
		if built[k] {
			r.enroll(need[k])
			r.everActive++
		}
	}
	return nil
}

// sweepDone emits the streaming line for every resident tenant that has
// passed its final active hour and holds no live recommendation, then
// frees it. An audited run keeps the freed state as a snapshot so the
// invariant checker can have the tenant's catalog back.
func (r *run) sweepDone(hour int, open map[string]bool) {
	for _, st := range r.slots {
		if st.phase != phaseResident || st.finalHour > hour || open[st.name] {
			continue
		}
		recs := len(r.runner.Plane.ListRecommendations(st.name))
		fmt.Fprintf(r.stream, "tenant %s done hour=%d archetype=%s active_hours=%d recommendations=%d indexes=%d\n",
			st.name, hour, st.arch.Name, st.activeHours, recs, len(st.tn.DB.IndexDefs()))
		if r.baselines != nil {
			st.snapshot = hibernateTenant(st.tn)
		}
		st.tn.Release()
		st.phase = phaseDone
		r.completed++
	}
}

// evict hibernates least-recently-active resident tenants until the
// resident count fits the cap. Tenants with live recommendation records
// are skipped — they would be rehydrated next hour anyway — so the cap is
// soft by the number of in-flight state machines. Victim selection is
// serial and keyed by (lastActive, slot order); the snapshot work fans
// out across the worker pool.
func (r *run) evict(open map[string]bool) {
	resident := r.residents()
	if r.residentCap <= 0 || len(resident) <= r.residentCap {
		return
	}
	sort.SliceStable(resident, func(a, b int) bool { return resident[a].lastActive < resident[b].lastActive })
	var victims []*slot
	for _, st := range resident {
		if len(victims) == len(resident)-r.residentCap {
			break
		}
		if !open[st.name] {
			victims = append(victims, st)
		}
	}
	forEach(r.workers, len(victims), func(k int) {
		st := victims[k]
		st.snapshot = hibernateTenant(st.tn)
		st.tn.Release()
		st.phase = phaseHibernated
	})
	bytes := int64(0)
	for _, st := range victims {
		bytes += int64(len(st.snapshot))
	}
	r.hibernations += int64(len(victims))
	r.snapshotBytes += bytes
	r.reg.Counter(descHibernations).Add(int64(len(victims)))
	r.reg.Counter(descSnapshotBytes).Add(bytes)
}

// observeResidency updates the resident gauge and the peak trackers.
func (r *run) observeResidency() {
	n := len(r.residents())
	r.reg.Gauge(descResidentTenants).Set(int64(n))
	if n > r.peakResident {
		r.peakResident = n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > r.peakHeap {
		r.peakHeap = ms.HeapAlloc
	}
}

// drain turns injection off and runs replay-free hours — every database's
// analysis and drop scans frozen first, so existing records settle and no
// new ones spawn — until no record is mid-flight (neither terminal nor
// waiting in Active) or maxDrain is consumed; survivors past the budget
// surface as invariant violations. Only tenants that are awake or hold
// live records are rehydrated and stepped, and completed tenants keep
// streaming their lines as their records settle.
func (r *run) drain() error {
	if r.ch != nil {
		r.ch.disable()
	}
	maxHours := r.maxDrain
	if maxHours <= 0 {
		maxHours = 21 * 24
	}
	midFlight := func(rec *controlplane.Record) bool {
		return !rec.State.Terminal() && rec.State != controlplane.StateActive
	}
	for ; r.drainHours < maxHours && len(r.mem.Records(midFlight)) > 0; r.drainHours++ {
		now := r.region.Now()
		for _, ds := range r.mem.Databases() {
			ds.LastAnalysis = now
			ds.LastDropScan = now
			r.mem.SaveDatabase(ds)
		}
		if err := r.hour(r.hours+r.drainHours, false); err != nil {
			return err
		}
	}
	return nil
}
