package main

import (
	"fmt"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. The tables below are the
// benchmark's side of that file; TestManifestMatchesTables holds the two
// together.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd lists the metrics a user of the system sees. The driver wants
// every one of them from every workload, so every workload runs the same
// three timed phases on its own tenants (see phases.go) and each metric
// is measured the same way everywhere; what differs between workloads is
// which tenants they are and which phase carries most of the work.
//
// Bounds: the wall-clock metrics spread 5-20 % between runs of identical
// input on the 2-vCPU sandbox this was sized on, and a bound belongs to
// a metric, not to a metric on one workload, so they carry the largest
// bound the contract allows. Allocation repeats to about 1 % and keeps a
// tight one. README.md, Steadiness, has the numbers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stmts_per_s", "1/s", "higher", 0.25},
	{"stmt_p50_us", "us", "lower", 0.25},
	{"stmt_p99_us", "us", "lower", 0.25},
	{"alloc_kb_per_stmt", "KB", "lower", 0.05},
	{"tenant_hours_per_s", "1/s", "higher", 0.25},
	{"dta_pass_ms", "ms", "lower", 0.25},
	{"peak_live_heap_mb", "MB", "lower", 0.2},
	// The share of operations that did not fail, because a metric may
	// never read 0 and the failed share always should. A run with any
	// failed operation is also reported incorrect.
	{"ops_ok_pct", "%", "higher", 0.001},
}

// measurement is one reported value. N is the sample count behind it
// (slices, passes, statements — whatever the value is a statistic of);
// Q1 and Q3 are the quartiles over those samples where there are any.
type measurement struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// count is a number that must repeat exactly between runs of the same
// seed and size: it pins that two runs did the same work.
type count struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// outcome is everything one run of one workload produced.
type outcome struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// GoMaxProcs, Conns and Workers are the parallelism the numbers were
	// taken at. A traced run also measures at one connection and one
	// worker, for the layer times and the two scaling ratios.
	GoMaxProcs int           `json:"gomaxprocs"`
	Conns      int           `json:"conns"`
	Workers    int           `json:"workers"`
	Metrics    []measurement `json:"metrics"`
	Counts     []count       `json:"counts"`
	Digest     string        `json:"decisions_digest,omitempty"`
	Attempted  int64         `json:"attempted"`
	Failed     int64         `json:"failed"`
	Problems   []string      `json:"problems"`
	Notes      []string      `json:"notes,omitempty"`
	WallS      float64       `json:"wall_s"`
}

func (o *outcome) add(name string, value float64, n int) {
	o.Metrics = append(o.Metrics, measurement{Name: name, Value: value, N: n})
}

func (o *outcome) addSpread(name string, s spread) {
	o.Metrics = append(o.Metrics, measurement{Name: name, Value: s.Median, N: s.N, Q1: s.Q1, Q3: s.Q3})
}

func (o *outcome) count(name string, v int64) {
	o.Counts = append(o.Counts, count{Name: name, Value: v})
}

func (o *outcome) problem(format string, args ...any) {
	o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return len(o.Problems) == 0 && o.Failed == 0 }

func (o *outcome) metric(name string) (measurement, bool) {
	for _, m := range o.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return measurement{}, false
}

// recordedDigests are the decisions digests of the seed code at the
// default size (-seconds 10; the fleet workloads do not depend on
// -seed). A run whose digest differs says so in a note and stays
// correct: a change that alters tuning decisions has to say that it
// does, and updates this table in a benchmark change of its own.
var recordedDigests = map[string]string{
	"tune_fleet":  "cc65299a93ff6b4c",
	"scale_churn": "e7ef2046d3fc3fe5",
}

// noteDigest compares an end-to-end run's digest with the recorded one.
func (o *outcome) noteDigest(p params) {
	want, ok := recordedDigests[o.Workload]
	if !ok || p.seconds != defaultSeconds || p.dataScale != 1 || o.Digest == want {
		return
	}
	o.Notes = append(o.Notes, fmt.Sprintf("decisions_digest differs from the recorded %s: tuning decisions changed", want))
}

// finish attaches units, orders the metrics as defs lists them and
// reports any that are missing or not positive.
func (o *outcome) finish(defs []metricDef, mustBePositive bool) {
	byName := make(map[string]measurement, len(o.Metrics))
	for _, m := range o.Metrics {
		byName[m.Name] = m
	}
	ordered := make([]measurement, 0, len(defs))
	for _, d := range defs {
		m, ok := byName[d.Name]
		if !ok {
			o.problem("metric %s was not measured", d.Name)
			continue
		}
		if mustBePositive && !(m.Value > 0) {
			o.problem("metric %s is %v, not a positive measurement", d.Name, m.Value)
		}
		m.Unit = d.Unit
		ordered = append(ordered, m)
		delete(byName, d.Name)
	}
	extra := make([]string, 0, len(byName))
	for name := range byName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		o.problem("metric %s is not in the benchmark's tables", name)
	}
	o.Metrics = ordered
}

// perLayer lists the metrics of single layers (layer = package name). A
// traced run measures all of them on the workload's own tenants and
// statements; README.md says which end-to-end metric each should move.
var perLayer = []metricDef{
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
	// Serving stack.
	{Name: "wire.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_us_per_row", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "serve.frontend_us", Unit: "us", Better: "lower"},
	{Name: "serve.prepared_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.conn_scaling", Unit: "x", Better: "higher"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.plan_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_self_us", Unit: "us", Better: "lower"},
	{Name: "engine.alloc_kb_per_stmt", Unit: "KB", Better: "lower"},
	{Name: "engine.allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "engine.rows_per_stmt", Unit: "count", Better: "lower"},
	{Name: "engine.reads_per_row", Unit: "count", Better: "lower"},
	{Name: "querystore.record_us", Unit: "us", Better: "lower"},
	{Name: "querystore.entries", Unit: "count", Better: "lower"},
	{Name: "costcache.invalidations_data", Unit: "count", Better: "lower"},
	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.seek100_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.heap_scan_ns_per_row", Unit: "ns", Better: "lower"},
	// Tuning stack.
	{Name: "workload.gen_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "workload.replay_share", Unit: "share", Better: "lower"},
	{Name: "controlplane.step_share", Unit: "share", Better: "lower"},
	{Name: "controlplane.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "controlplane.step_ms_max", Unit: "ms", Better: "lower"},
	{Name: "controlplane.store_saves", Unit: "count", Better: "lower"},
	{Name: "controlplane.memstore_save_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.filestore_save_us", Unit: "us", Better: "lower"},
	{Name: "controlplane.filestore_bytes_per_save", Unit: "B", Better: "lower"},
	{Name: "dta.pass_ms_first", Unit: "ms", Better: "lower"},
	{Name: "dta.pass_ms_cold", Unit: "ms", Better: "lower"},
	{Name: "dta.pass_ms_warm", Unit: "ms", Better: "lower"},
	{Name: "dta.whatif_calls_cold", Unit: "count", Better: "lower"},
	{Name: "dta.whatif_calls_warm", Unit: "count", Better: "lower"},
	{Name: "optimizer.whatif_us_per_call", Unit: "us", Better: "lower"},
	{Name: "costcache.hit_ratio_warm", Unit: "share", Better: "higher"},
	{Name: "querystore.topk_us", Unit: "us", Better: "lower"},
	{Name: "mi.recommend_us", Unit: "us", Better: "lower"},
	{Name: "dropper.analyze_us", Unit: "us", Better: "lower"},
	{Name: "validate.validate_us", Unit: "us", Better: "lower"},
	{Name: "engine.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.worker_speedup", Unit: "x", Better: "higher"},
	{Name: "fleet.build_ms_per_tenant", Unit: "ms", Better: "lower"},
	{Name: "fleet.alloc_mb_per_tenant_hour", Unit: "MB", Better: "lower"},
	// Scale stack.
	{Name: "workload.archetype_build_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.stamp_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.hibernate_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.rehydrate_ms", Unit: "ms", Better: "lower"},
	{Name: "snap.bytes_per_tenant", Unit: "B", Better: "lower"},
	{Name: "snap.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fleet.hibernations", Unit: "count", Better: "lower"},
	{Name: "fleet.rehydrations", Unit: "count", Better: "lower"},
	{Name: "fleet.snapshot_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.peak_resident", Unit: "count", Better: "lower"},
}
