package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/costcache"
	"autoindex/internal/dropper"
	"autoindex/internal/engine"
	"autoindex/internal/fleet"
	"autoindex/internal/querystore"
	"autoindex/internal/recommend/dta"
	"autoindex/internal/recommend/mi"
	"autoindex/internal/sim"
	"autoindex/internal/validate"
	"autoindex/internal/workload"
)

// save is one write the control plane made to its store, kept so the
// same sequence can be replayed into a FileStore afterwards.
type save struct {
	record   *controlplane.Record
	database *controlplane.DatabaseState
	incident *controlplane.Incident
}

// tracedStore is the timing decorator around controlplane.Store: every
// save becomes a child span of the step that made it.
type tracedStore struct {
	controlplane.Store
	tr    *tracer
	saves []save
}

func (s *tracedStore) SaveRecord(r *controlplane.Record) error {
	c := *r
	s.saves = append(s.saves, save{record: &c})
	s.tr.begin("controlplane.store.save")
	defer s.tr.end()
	return s.Store.SaveRecord(r)
}

func (s *tracedStore) SaveDatabase(d *controlplane.DatabaseState) error {
	c := *d
	s.saves = append(s.saves, save{database: &c})
	s.tr.begin("controlplane.store.save")
	defer s.tr.end()
	return s.Store.SaveDatabase(d)
}

func (s *tracedStore) SaveIncident(i controlplane.Incident) error {
	s.saves = append(s.saves, save{incident: &i})
	s.tr.begin("controlplane.store.save")
	defer s.tr.end()
	return s.Store.SaveIncident(i)
}

// tracedOpsLoop is the benchmark's own hour loop over exported calls,
// one request span per virtual hour. It makes the calls RunOps makes in
// the order RunOps makes them — enrolment draws, replay, failover draws,
// the two clock barriers around Step — so that it reaches the same
// OperationalStats; the caller checks that it did, and that equality is
// what licenses reading this loop's shares as RunOps' shares.
func tracedOpsLoop(tr *tracer, f *fleet.Fleet, spec fleet.Spec, cfg fleet.OpsConfig) (controlplane.OperationalStats, *tracedStore) {
	store := &tracedStore{Store: controlplane.NewMemStore(), tr: tr}
	plane := cfg.Plane
	plane.Metrics = f.Metrics
	cp := controlplane.New(plane, f.Clock, store, nil)
	auto := f.RNG.Child("ops/auto")
	failover := make([]*sim.RNG, len(f.Tenants))
	for i, tn := range f.Tenants {
		on := auto.Float64() < cfg.AutoImplementFraction
		cp.Manage(tn.DB, "server-0", controlplane.Settings{AutoCreate: on, AutoDrop: on})
		failover[i] = sim.TenantRNG(spec.Seed, tn.DB.Name()).Child("ops/failover")
	}
	for h := 0; h < cfg.Days*24; h++ {
		tr.request("hour")
		for i, tn := range f.Tenants {
			tr.begin("workload.replay")
			tn.Run(0, cfg.StatementsPerHour)
			tr.end()
			if failover[i].Float64() < cfg.FailoverProb/24 {
				tn.DB.Failover()
			}
		}
		tr.begin("fleet.advance")
		f.AdvanceLive(time.Hour)
		tr.end()
		tr.begin("controlplane.step")
		cp.Step()
		tr.end()
		tr.begin("fleet.advance")
		f.AdvanceLive(0)
		tr.end()
		tr.end()
	}
	return cp.OpStats(), store
}

// replayIntoFileStore replays captured saves into a FileStore under dir
// and returns the time and the bytes written per save.
func replayIntoFileStore(dir string, saves []save) (meanUs, bytesPerSave float64, err error) {
	tmp, err := os.MkdirTemp(dir, "filestore-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(tmp)
	fs, err := controlplane.NewFileStore(filepath.Join(tmp, "journal.json"))
	if err != nil {
		return 0, 0, err
	}
	var ns, written int64
	for _, s := range saves {
		t := startTimer()
		switch {
		case s.record != nil:
			err = fs.SaveRecord(s.record)
		case s.database != nil:
			err = fs.SaveDatabase(s.database)
		default:
			err = fs.SaveIncident(*s.incident)
		}
		ns += t.ns()
		if err != nil {
			return 0, 0, fmt.Errorf("file store save: %w", err)
		}
		st, err := os.Stat(fs.Path())
		if err != nil {
			return 0, 0, err
		}
		written += st.Size() // every save rewrites the whole journal
	}
	n := int64(len(saves))
	if n == 0 {
		return 0, 0, fmt.Errorf("the traced loop saved nothing to replay")
	}
	return meanMicros(ns, n), float64(written) / float64(n), nil
}

// probeTuning measures the tuning stack on fleets built from spec. Three
// identical fleets are set up: A runs RunOps on the full worker pool, B
// on one worker, C the traced loop. All three must reach the same
// OperationalStats. The recommender and its helpers are then timed one
// call at a time on A's tenants. It returns the tenants' profiles and
// the traced loop's overhead over RunOps at one worker.
func probeTuning(o *outcome, tr *tracer, spec fleet.Spec, p params, days int) ([]workload.Profile, float64, error) {
	if err := os.MkdirAll(p.outDir, 0o755); err != nil {
		return nil, 0, err
	}
	var buildMs, firstMs []float64
	setUp := func(workers int) (*fleet.Fleet, fleet.Spec, error) {
		s := spec
		s.Workers = workers
		var timing setupTiming
		f, err := buildTunedFleet(s, &timing)
		if err != nil {
			return nil, s, err
		}
		buildMs = append(buildMs, nsToMillis(timing.buildNs)/float64(len(f.Tenants)))
		for _, ns := range timing.firstPassNs {
			firstMs = append(firstMs, nsToMillis(ns))
		}
		return f, s, nil
	}
	cfg := opsConfig(days)

	fa, sa, err := setUp(runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, 0, err
	}
	meter := startAllocMeter()
	t := startTimer()
	ra, err := fa.RunOps(sa, cfg)
	wallA := t.ns()
	allocA := meter.delta()
	if err != nil {
		return nil, 0, err
	}
	fb, sb, err := setUp(1)
	if err != nil {
		return nil, 0, err
	}
	t = startTimer()
	rb, err := fb.RunOps(sb, cfg)
	wallB := t.ns()
	if err != nil {
		return nil, 0, err
	}
	fc, sc, err := setUp(1)
	if err != nil {
		return nil, 0, err
	}
	before := len(tr.spans)
	t = startTimer()
	statsC, store := tracedOpsLoop(tr, fc, sc, cfg)
	wallC := t.ns()
	if ra.Stats != rb.Stats || ra.Stats != statsC {
		o.problem("operational statistics differ: RunOps %d workers {%v}, RunOps 1 worker {%v}, traced loop {%v}", runtime.GOMAXPROCS(0), ra.Stats, rb.Stats, statsC)
	}
	if ra.Stats.Incidents != 0 {
		o.problem("%d incidents raised", ra.Stats.Incidents)
	}
	o.Digest = digest(ra.Report(), ra.RevertReport())
	tenantHours := int64(len(fa.Tenants) * days * 24)
	o.Attempted += 3 * tenantHours
	o.Failed += int64(erroredRecords(ra.Plane)+erroredRecords(rb.Plane)) + ra.Stats.Incidents + rb.Stats.Incidents

	loop := tr.spans[before:]
	lt := selfTimes(loop)
	hourNs := float64(lt.Total["hour"])
	stepMs := make([]float64, 0, days*24)
	for _, ns := range durations(loop, "controlplane.step") {
		stepMs = append(stepMs, nsToMillis(ns))
	}
	steps := spreadOf(stepMs)
	replayShare, stepShare := float64(lt.Total["workload.replay"])/hourNs, float64(lt.Total["controlplane.step"])/hourNs
	o.add("workload.replay_share", replayShare, days*24)
	o.add("controlplane.step_share", stepShare, days*24)
	if p.timingChecks && replayShare+stepShare < 0.95 {
		o.problem("replay %.3f + step %.3f cover less than 95%% of the traced hours", replayShare, stepShare)
	}
	o.add("controlplane.step_ms_p50", steps.Median, steps.N)
	o.add("controlplane.step_ms_max", slices.Max(stepMs), steps.N)
	saves := lt.Count["controlplane.store.save"]
	o.add("controlplane.store_saves", float64(saves), 1)
	o.add("controlplane.memstore_save_us", meanMicros(lt.Total["controlplane.store.save"], max(1, saves)), int(saves))
	fileUs, fileBytes, err := replayIntoFileStore(p.outDir, store.saves)
	if err != nil {
		return nil, 0, err
	}
	o.add("controlplane.filestore_save_us", fileUs, len(store.saves))
	o.add("controlplane.filestore_bytes_per_save", fileBytes, len(store.saves))
	o.add("fleet.worker_speedup", float64(wallB)/float64(wallA), 1)
	o.add("fleet.build_ms_per_tenant", median(buildMs), len(buildMs))
	overheadPct := (float64(wallC)/float64(wallB) - 1) * 100
	o.add("dta.pass_ms_first", median(firstMs), len(firstMs))

	alloc := float64(allocA.bytes) / float64(tenantHours)
	o.add("fleet.alloc_mb_per_tenant_hour", alloc/(1<<20), int(tenantHours))
	profiles := make([]workload.Profile, len(fa.Tenants))
	for i, tn := range fa.Tenants {
		profiles[i] = tn.Profile
	}
	return profiles, overheadPct, probeRecommenders(o, fa, fc, ra)
}

// probeRecommenders times the recommender and its helpers one call at a
// time on a fleet that has just been through RunOps.
func probeRecommenders(o *outcome, f, gen *fleet.Fleet, res *fleet.OpsResult) error {
	// RunOps has refreshed statistics since the set-up's priming pass;
	// prime again so every timed round starts from the same catalog.
	for _, tn := range f.Tenants {
		if _, err := dtaPass(tn, false); err != nil {
			return fmt.Errorf("priming DTA pass: %w", err)
		}
	}
	const coldRounds = 5
	sw, problems := runSweep(f.Tenants, coldRounds)
	o.Problems = append(o.Problems, problems...)
	var coldCalls int64
	for _, c := range sw.callsRound {
		coldCalls += c
	}
	coldNs, passes := sw.wallNs, int64(sw.passes())
	o.add("dta.pass_ms_cold", nsToMillis(coldNs)/float64(passes), int(passes))
	o.add("dta.whatif_calls_cold", float64(sw.callsRound[0]), coldRounds)
	o.add("optimizer.whatif_us_per_call", meanMicros(coldNs, max(1, coldCalls)), int(coldCalls))

	hits, misses := f.Metrics.Counter(costcache.DescHits), f.Metrics.Counter(costcache.DescMisses)
	h0, m0 := hits.Value(), misses.Value()
	var warmNs, warmCalls int64
	type build struct {
		db  *engine.Database
		rec dta.Result
	}
	var builds []build
	for _, tn := range f.Tenants {
		t := startTimer()
		warm, err := dtaPass(tn, false)
		warmNs += t.ns()
		if err != nil {
			return fmt.Errorf("warm DTA pass: %w", err)
		}
		warmCalls += warm.WhatIfCalls
		if len(warm.Recommendations) > 0 {
			builds = append(builds, build{db: tn.DB, rec: *warm})
		}
	}
	tenants := int64(len(f.Tenants))
	o.add("dta.pass_ms_warm", nsToMillis(warmNs)/float64(tenants), int(tenants))
	o.add("dta.whatif_calls_warm", float64(warmCalls), 1)
	dh, dm := float64(hits.Value()-h0), float64(misses.Value()-m0)
	o.add("costcache.hit_ratio_warm", dh/max(1, dh+dm), int(dh+dm))

	const reps = 20
	var topkNs, miNs, dropNs, genNs int64
	for _, tn := range f.Tenants {
		db := tn.DB
		opts := dta.OptionsForTier(db.Tier())
		since := db.Clock().Now().Add(-opts.WindowN)
		t := startTimer()
		for i := 0; i < reps; i++ {
			db.QueryStore().CompressedTopByCPU(since, opts.TopK, querystore.CompressionOptions{
				TargetCoverage: opts.CompressionCoverage,
				TailSamples:    opts.CompressionTailSamples,
				Rand:           db.DeriveRNG("dta/compress"),
			})
		}
		topkNs += t.ns()
		t = startTimer()
		for i := 0; i < reps; i++ {
			rec := mi.New(db, mi.DefaultConfig())
			rec.TakeSnapshot()
			rec.Recommend()
		}
		miNs += t.ns()
		observedSince := db.Clock().Now().Add(-90 * 24 * time.Hour)
		t = startTimer()
		for i := 0; i < reps; i++ {
			dropper.Analyze(db, observedSince, dropper.DefaultConfig())
		}
		dropNs += t.ns()
	}
	calls := tenants * reps
	o.add("querystore.topk_us", meanMicros(topkNs, calls), int(calls))
	o.add("mi.recommend_us", meanMicros(miNs, calls), int(calls))
	o.add("dropper.analyze_us", meanMicros(dropNs, calls), int(calls))

	// Validation of indexes RunOps implemented, against the Query Store of
	// the tenant that got them.
	cfg := controlplane.DefaultConfig()
	var valNs, validated int64
	dbs := make(map[string]*engine.Database, len(f.Tenants))
	for _, tn := range f.Tenants {
		dbs[tn.DB.Name()] = tn.DB
	}
	implemented := res.Plane.StateStore().Records(func(r *controlplane.Record) bool { return !r.ImplementedAt.IsZero() })
	for _, r := range implemented {
		db := dbs[r.Database]
		if db == nil {
			continue
		}
		t := startTimer()
		for i := 0; i < reps; i++ {
			validate.Validate(db.QueryStore(), r.Index.Name, true, r.ImplementedAt, cfg.ValidationWindow, cfg.Validator)
		}
		valNs += t.ns()
		validated += reps
	}
	o.add("validate.validate_us", meanMicros(valNs, max(1, validated)), int(validated))

	// Online build of each tenant's first recommendation, on a clone so
	// the tenant itself is left as RunOps left it.
	var buildNs, built int64
	for _, b := range builds {
		clone := b.db.Clone(b.db.Name() + "-probe")
		t := startTimer()
		_, err := clone.CreateIndexWithReport(b.rec.Recommendations[0].Def, engine.IndexBuildOptions{Online: true})
		buildNs += t.ns()
		if err != nil {
			return fmt.Errorf("index build probe: %w", err)
		}
		built++
	}
	o.add("engine.index_build_ms", nsToMillis(buildNs)/float64(max(1, built)), int(built))

	// Statement generation, on the fleet the traced loop replayed.
	const generated = 200
	for _, tn := range gen.Tenants {
		t := startTimer()
		tn.Stream(generated)
		genNs += t.ns()
	}
	o.add("workload.gen_us_per_stmt", meanMicros(genNs, int64(len(gen.Tenants))*generated), len(gen.Tenants)*generated)
	return nil
}
