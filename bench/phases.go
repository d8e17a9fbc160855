package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"autoindex/internal/controlplane"
	"autoindex/internal/core"
	"autoindex/internal/recommend/dta"
	"autoindex/internal/workload"
)

// Every end-to-end run is set-up followed by the same three timed
// phases on the workload's own tenants, so every end-to-end metric is
// one measurement, taken the same way on every workload:
//
//	serve  the tenants answer a statement stream over the wire, serveConns
//	       closed-loop connections: stmts_per_s, stmt_p50_us, stmt_p99_us,
//	       alloc_kb_per_stmt
//	sweep  rounds of one cold DTA session per tenant: dta_pass_ms
//	ops    virtual hours of replay and control-plane steps:
//	       tenant_hours_per_s
//
// The workloads differ in which tenants these are, in which phase
// carries most of a run's work, and in what runs the ops phase (a control
// plane over the served tenant, Fleet.RunOps, fleet.RunScale).

// fleetStmtsPerTenantHour is the replay budget per tenant per virtual
// hour wherever the benchmark drives a control plane over full-size
// tenants.
const fleetStmtsPerTenantHour = 20

// timeSetups runs a set-up p.setups times, and a cheap one more often —
// until 1.5 s have gone into it or it has run nine times — and returns
// the spread of the times. The last run's result is the one kept;
// release drops the previous one, which is collected outside the timing
// so the process holds one set-up's memory at a time, not three.
func timeSetups(p params, release func(), setUp func() error) (spread, error) {
	var times []float64
	total := 0.0
	for len(times) < p.setups || (p.setups > 1 && total < 1.5 && len(times) < 9) {
		release()
		runtime.GC()
		t := startTimer()
		if err := setUp(); err != nil {
			return spread{}, err
		}
		times = append(times, t.seconds())
		total += times[len(times)-1]
	}
	return spreadOf(times), nil
}

// timed runs the phases of an end-to-end run in order under the
// live-heap sampler.
func (o *outcome) timed(phases ...func() error) error {
	runtime.GC() // set-up's garbage is not the timed phases'
	heap := startHeapSampler()
	var err error
	for _, phase := range phases {
		if err = phase(); err != nil {
			break
		}
	}
	o.add("peak_live_heap_mb", bytesToMB(heap.peakBytes()), 1)
	return err
}

// servePhase sends in's stream to an in-process server on loopback over
// serveConns closed-loop connections and checks what came back.
func servePhase(o *outcome, in *serveInput) error {
	srv, err := startServer(in.tenants)
	if err != nil {
		return err
	}
	alloc := startAllocMeter()
	run, err := runWire(srv.addr, in, serveConns)
	if err != nil {
		_ = srv.stop() // the dial or prepare error is the one to report
		return err
	}
	allocated := alloc.delta()

	sent := len(in.stmts)
	o.Attempted += int64(sent)
	o.Failed += run.failed
	if run.firstErr != nil {
		o.problem("%d statements failed, first: %v", run.failed, run.firstErr)
	}
	st := reduce(run.ops, nSlices)
	o.addSpread("stmts_per_s", st.PerSecond)
	o.addSpread("stmt_p50_us", st.P50)
	o.addSpread("stmt_p99_us", st.P99)
	o.add("alloc_kb_per_stmt", bytesToKB(allocated.bytes)/float64(sent), sent)
	o.Notes = append(o.Notes, fmt.Sprintf("serve phase %.2f s", float64(run.wallNs)/1e9))
	o.count("statements", int64(sent))
	o.count("slices", int64(st.Slices))
	o.count("samples_per_slice", int64(st.PerSlice))
	o.count("samples_beyond_p99", int64(st.Beyond99))

	o.Problems = append(o.Problems, checkRowCounts(in, run.rowDelta)...)
	checked, problems := checkSampledReads(srv.addr, in)
	o.Problems = append(o.Problems, problems...)
	o.count("sampled_reads_checked", int64(checked))
	return srv.stop()
}

// dtaPass runs one tuning session with the tier's options and no
// what-if budget; cold empties the plan-cost cache first.
func dtaPass(tn *workload.Tenant, cold bool) (*dta.Result, error) {
	if cold {
		tn.DB.PlanCostCache().Reset()
	}
	opts := dta.OptionsForTier(tn.DB.Tier())
	opts.MaxWhatIfCalls = 0
	return dta.Run(tn.DB, opts)
}

func recommendationNames(cands []core.Candidate) string {
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.Def.String()
	}
	sort.Strings(names)
	return strings.Join(names, ";")
}

// sweep is rounds of one cold DTA pass per tenant.
type sweep struct {
	passNs     [][]int64 // per tenant, the wall time of its pass in each round
	wallNs     int64
	callsRound []int64  // what-if calls of each round
	recs       []string // recommendation set per tenant, from the last round
	errors     int64
}

func (s *sweep) passes() int { return len(s.passNs) * len(s.callsRound) }

// passMillis is the sweep's cold pass time: the mean over tenants of
// each tenant's lower-quartile pass. Tenants differ severalfold in pass
// cost, so a statistic over all passes would sit on whichever tenant
// happens to be in the middle. A tenant's own passes are the same work
// every round; what differs is whether a garbage-collection cycle or a
// neighbour's burst ran beside them, and that only ever adds time, so the
// quartile on the undisturbed side is the steady one (over ten runs it
// spread 7-13 % where the median spread 10-26 %).
func (s *sweep) passMillis() float64 {
	var sum float64
	for _, ns := range s.passNs {
		ms := make([]float64, len(ns))
		for i, v := range ns {
			ms[i] = nsToMillis(v)
		}
		sum += spreadOf(ms).Q1
	}
	return sum / float64(len(s.passNs))
}

func runSweep(tenants []*workload.Tenant, rounds int) (*sweep, []string) {
	var problems []string
	s := &sweep{passNs: make([][]int64, len(tenants)), recs: make([]string, len(tenants))}
	region := startTimer()
	for r := 0; r < rounds; r++ {
		var calls int64
		for i, tn := range tenants {
			t := startTimer()
			res, err := dtaPass(tn, true)
			s.passNs[i] = append(s.passNs[i], t.ns())
			if err != nil {
				s.errors++
				problems = append(problems, fmt.Sprintf("cold DTA pass on %s: %v", tn.DB.Name(), err))
				continue
			}
			calls += res.WhatIfCalls
			names := recommendationNames(res.Recommendations)
			if r > 0 && names != s.recs[i] {
				problems = append(problems, fmt.Sprintf("round %d recommends %q on %s, round %d recommended %q", r, names, tn.DB.Name(), r-1, s.recs[i]))
			}
			s.recs[i] = names
		}
		s.callsRound = append(s.callsRound, calls)
		if calls != s.callsRound[0] {
			problems = append(problems, fmt.Sprintf("cold round %d made %d what-if calls, round 0 made %d", r, calls, s.callsRound[0]))
		}
	}
	s.wallNs = region.ns()
	return s, problems
}

// sweepPhase is the recommender alone: one untimed priming pass per
// tenant (it builds the sampled statistics later passes reuse), the
// timed cold rounds, and one warm pass per tenant that must recommend
// what the cold ones did.
func sweepPhase(o *outcome, tenants []*workload.Tenant, rounds int) error {
	for _, tn := range tenants {
		if _, err := dtaPass(tn, false); err != nil {
			return fmt.Errorf("priming DTA pass on %s: %w", tn.DB.Name(), err)
		}
	}
	sw, problems := runSweep(tenants, rounds)
	o.Problems = append(o.Problems, problems...)
	o.add("dta_pass_ms", sw.passMillis(), sw.passes())
	for i, tn := range tenants {
		warm, err := dtaPass(tn, false)
		if err != nil {
			sw.errors++
			o.problem("warm DTA pass on %s: %v", tn.DB.Name(), err)
		} else if names := recommendationNames(warm.Recommendations); names != sw.recs[i] {
			o.problem("warm pass recommends %q on %s, cold passes %q", names, tn.DB.Name(), sw.recs[i])
		}
	}
	o.Attempted += int64(sw.passes() + 2*len(tenants))
	o.Failed += sw.errors
	o.Notes = append(o.Notes, fmt.Sprintf("sweep phase %.2f s", float64(sw.wallNs)/1e9))
	o.count("dta_passes_cold", int64(sw.passes()))
	o.count("whatif_calls_per_cold_round", sw.callsRound[0])
	return nil
}

// addOps records what an ops phase did: tenant-hours replayed and
// stepped in wallNs, recommendation records filed, and how many of
// those ended in Error or raised an incident.
func (o *outcome) addOps(tenantHours, wallNs int64, stats controlplane.OperationalStats, errored int) {
	o.add("tenant_hours_per_s", perSecond(tenantHours, wallNs), 1)
	filed := stats.CreateRecommended + stats.DropRecommended
	o.Attempted += tenantHours + filed
	o.Failed += int64(errored) + stats.Incidents
	if stats.Incidents != 0 {
		o.problem("%d incidents raised", stats.Incidents)
	}
	o.Notes = append(o.Notes, fmt.Sprintf("ops phase %.2f s", float64(wallNs)/1e9))
	o.count("tenant_hours", tenantHours)
	o.count("records_filed", filed)
	o.count("creates_implemented", stats.CreatesImplemented)
	o.count("drops_implemented", stats.DropsImplemented)
	o.count("validations", stats.Validations)
	o.count("reverts", stats.Reverts)
}

// erroredRecords counts the recommendation records of a control plane
// that ended in Error.
func erroredRecords(cp *controlplane.ControlPlane) int {
	return len(cp.StateStore().Records(func(r *controlplane.Record) bool {
		return r.State == controlplane.StateError
	}))
}

// tunePhase is the ops phase of a serve workload: the tenant that was
// just served is handed to a control plane with automatic implementation
// on, and lives hours virtual hours of its generator's statements, each
// followed by a control-plane step — recommendation from the Query Store
// the wire traffic filled, online builds, validation, reverts. The
// tenant's clock is the region clock, so the barrier RunOps keeps between
// the two is not needed.
func tunePhase(o *outcome, tn *workload.Tenant, hours int) error {
	cp := controlplane.New(controlplane.DefaultConfig(), tn.DB.Clock(), controlplane.NewMemStore(), nil)
	cp.Manage(tn.DB, "server-0", controlplane.Settings{AutoCreate: true, AutoDrop: true})
	region := startTimer()
	for h := 0; h < hours; h++ {
		if st := tn.Run(time.Hour, fleetStmtsPerTenantHour); st.Errors > 0 {
			o.Failed += int64(st.Errors)
			o.problem("%d of %d replayed statements failed in hour %d", st.Errors, st.Statements, h)
		}
		cp.Step()
	}
	wallNs := region.ns()
	stats := cp.OpStats()
	o.addOps(int64(hours), wallNs, stats, erroredRecords(cp))
	o.Digest = digest(stats.String())
	return nil
}
