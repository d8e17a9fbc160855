package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func opsAt(ends ...int64) []op {
	out := make([]op, len(ends))
	for i, e := range ends {
		out[i] = op{end: e, lat: e}
	}
	return out
}

func TestCutSlices(t *testing.T) {
	ops := opsAt(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	got := cutSlices(ops, 4)
	sizes := []int{3, 3, 3, 2} // 11 = 4*2 + 3: the remainder goes to the first slices
	if len(got) != len(sizes) {
		t.Fatalf("got %d slices, want %d", len(got), len(sizes))
	}
	next := int64(1)
	for i, sl := range got {
		if len(sl) != sizes[i] {
			t.Errorf("slice %d has %d ops, want %d", i, len(sl), sizes[i])
		}
		for _, o := range sl {
			if o.end != next {
				t.Fatalf("slice %d holds op %d where op %d belongs: order or coverage broken", i, o.end, next)
			}
			next++
		}
	}
	if got := cutSlices(opsAt(1, 2), 20); len(got) != 2 {
		t.Errorf("2 ops cut into %d slices, want one per op", len(got))
	}
	if got := cutSlices(nil, 20); len(got) != 0 {
		t.Errorf("no ops cut into %d slices, want none", len(got))
	}
}

func TestReduceMedianOfSlices(t *testing.T) {
	// Four slices of 1000 ops. Slices 0, 1 and 3 run one op per
	// microsecond with 10 us latency; slice 2 is a burst victim, ten
	// times slower on both. The median over slices must not see it.
	var ops []op
	now := int64(0)
	for slice := 0; slice < 4; slice++ {
		step, lat := int64(1000), int64(10_000)
		if slice == 2 {
			step, lat = 10_000, 100_000
		}
		for i := 0; i < 1000; i++ {
			now += step
			ops = append(ops, op{end: now, lat: lat})
		}
	}
	// Hand reduce the ops out of order: it must sort by completion.
	ops[0], ops[len(ops)-1] = ops[len(ops)-1], ops[0]
	st := reduce(ops, 4)
	if st.PerSlice != 1000 || st.PerSecond.N != 4 {
		t.Fatalf("per-slice sample count %d over %d slices, want 1000 over 4", st.PerSlice, st.PerSecond.N)
	}
	if got := st.PerSecond.Median; math.Abs(got-1e6) > 1 {
		t.Errorf("throughput %v ops/s, want the undisturbed slices' 1e6", got)
	}
	if st.P50.Median != 10 || st.P99.Median != 10 {
		t.Errorf("p50 %v us, p99 %v us, want 10 and 10", st.P50.Median, st.P99.Median)
	}
	if st.Beyond99 != 10 || st.Slices != 4 {
		t.Errorf("beyond p99: %d samples in each of %d slices; want 10 in 4", st.Beyond99, st.Slices)
	}
}

func TestReduceShortRegionIsOneSlice(t *testing.T) {
	// 20 slices of 100 would leave one sample beyond a slice's p99: too
	// few, so the 2000 ops are one slice, which leaves 20.
	var ops []op
	for i := 1; i <= 2000; i++ {
		ops = append(ops, op{end: int64(i) * 1000, lat: int64(i) * 1000})
	}
	st := reduce(ops, 20)
	if st.Slices != 1 || st.PerSlice != 2000 || st.Beyond99 != 20 {
		t.Fatalf("%d slices of %d with %d beyond, want 1 of 2000 with 20", st.Slices, st.PerSlice, st.Beyond99)
	}
	if st.P50.Median != 1000 || st.P99.Median != 1980 {
		t.Errorf("p50 %v us, p99 %v us, want the 1000th and the 1980th latency", st.P50.Median, st.P99.Median)
	}
	if got := st.PerSecond.Median; math.Abs(got-1e6) > 1 {
		t.Errorf("throughput %v ops/s, want 1e6", got)
	}
}

func TestSweepPassMillis(t *testing.T) {
	// A cheap and a dear tenant, four rounds; two of the dear tenant's
	// passes ran beside a burst. The estimate is the mean of the two
	// tenants' lower-quartile passes, so neither the bursts nor the mix of
	// tenants moves it.
	s := &sweep{passNs: [][]int64{{1e6, 1e6, 1e6, 1e6}, {9e6, 50e6, 9e6, 30e6}}, callsRound: []int64{4, 4, 4, 4}}
	if got := s.passMillis(); got != 5 {
		t.Errorf("pass time %v ms, want 5", got)
	}
	if s.passes() != 8 {
		t.Errorf("%d passes, want 8", s.passes())
	}
}

func TestQuantileAndMedian(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of an odd count = %v, want 5", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "hour", StartNs: 0, EndNs: 100, Parent: -1},
		// Two workers under one barrier overlap from 30 to 50.
		{Name: "replay", StartNs: 10, EndNs: 50, Parent: 0},
		{Name: "replay", StartNs: 30, EndNs: 70, Parent: 0},
		// A child that outlives its parent is clipped to it.
		{Name: "step", StartNs: 90, EndNs: 120, Parent: 0},
		{Name: "save", StartNs: 95, EndNs: 100, Parent: 3},
	}
	lt := selfTimes(spans)
	// Children cover [10,70] and [90,100] of the hour: 70 of 100.
	if got := lt.Self["hour"]; got != 30 {
		t.Errorf("hour self time %d, want 30", got)
	}
	if got := lt.Total["replay"]; got != 80 {
		t.Errorf("replay total %d, want 80 (overlap counts once per span)", got)
	}
	if got := lt.Self["step"]; got != 25 {
		t.Errorf("step self time %d, want 30 less its 5 of save", got)
	}
	if lt.Count["replay"] != 2 || lt.Count["hour"] != 1 {
		t.Errorf("span counts %v", lt.Count)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.request("stmt")
	tr.begin("parse")
	tr.end()
	tr.begin("exec")
	tr.end()
	tr.end()
	tr.request("stmt")
	tr.end()
	want := []struct {
		name        string
		parent, req int
	}{{"stmt", -1, 0}, {"parse", 0, 0}, {"exec", 0, 0}, {"stmt", -1, 1}}
	if len(tr.spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d", len(tr.spans), len(want))
	}
	for i, w := range want {
		s := tr.spans[i]
		if s.Name != w.name || s.Parent != w.parent || s.Req != w.req || s.EndNs < s.StartNs {
			t.Errorf("span %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestDigest(t *testing.T) {
	// FNV-64a of "abc", from the reference implementation.
	if got := digest("a", "bc"); got != "e71fa2190541574b" {
		t.Errorf("digest = %s, want e71fa2190541574b", got)
	}
	if digest("report") == digest("report ") {
		t.Error("digest ignores a changed byte")
	}
}

func TestShares(t *testing.T) {
	got := shares([]float64{0.5, 0.25, 0.25, 0.001}, 10)
	sum := 0
	for _, n := range got {
		sum += n
	}
	if sum != 10 || got[0] != 5 || got[3] != 0 {
		t.Errorf("shares = %v, want ten statements split 5 to the half-weight template and none to the rare one", got)
	}
}

func TestEvenOrder(t *testing.T) {
	// Four, two and one copies: each spread over the whole, so every half
	// and every quarter holds its share.
	got := evenOrder([]int{4, 2, 1})
	want := []int{0, 1, 0, 2, 0, 1, 0}
	if !slices.Equal(got, want) {
		t.Errorf("evenOrder = %v, want %v", got, want)
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(rate float64, n int64, dig string) []*outcome {
		o := &outcome{Workload: "w", Digest: dig}
		o.add("stmts_per_s", rate, 1)
		o.count("statements", n)
		return []*outcome{o}
	}
	var buf bytes.Buffer
	if d := compareSets(mk(100, 5, "x"), mk(105, 5, "x"), &buf); len(d) != 0 {
		t.Errorf("5%% apart within a 25%% bound reported as disagreement: %v", d)
	}
	if d := compareSets(mk(100, 5, "x"), mk(130, 5, "x"), &buf); len(d) != 1 {
		t.Errorf("30%% apart: disagreements %v, want one", d)
	}
	if d := compareSets(mk(100, 5, "x"), mk(100, 6, "y"), &buf); len(d) != 2 {
		t.Errorf("count and digest changed: disagreements %v, want two", d)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", m.RunSeconds, defaultSeconds)
	}
	if strings.Join(m.Command, " ") != "go run ./bench" || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("command %v and paths %v do not name this package", m.Command, m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d is %q (why: %d chars), want %q with a one-line reason", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		d := endToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, the benchmark's table has %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		d := perLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the benchmark's table has %+v", i, e, d)
		}
	}
}

// TestSmoke runs all four workloads at about 1% size on tiny tenants,
// end to end and traced, with every correctness check on, and holds the
// output to the driver's contract.
func TestSmoke(t *testing.T) {
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		code := run([]string{"-smoke", "-workload", "all", "-trace", trace, "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-trace %s exited %d\nstdout:\n%s\nstderr:\n%s", trace, code, stdout.String(), stderr.String())
		}
		var results []resultLine
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "{") {
				var r resultLine
				if err := json.Unmarshal([]byte(line), &r); err != nil {
					t.Fatalf("result line %q: %v", line, err)
				}
				results = append(results, r)
			}
		}
		if len(results) != len(workloads) {
			t.Fatalf("-trace %s printed %d result lines, want one per workload", trace, len(results))
		}
		for i, r := range results {
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s -trace %s: correct=%v attempted=%d failed=%d", workloads[i].name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s -trace %s reports %d metrics, want %d", workloads[i].name, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s -trace %s: metric %s missing or in unit %q, want %q", workloads[i].name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
			t.Errorf("-trace %s left no result.json: %v", trace, err)
		}
		if trace == "1" {
			for _, w := range workloads {
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.name+".json")); err != nil {
					t.Errorf("no trace for %s: %v", w.name, err)
				}
			}
			left, _ := filepath.Glob(filepath.Join(out, "filestore-*"))
			if len(left) != 0 {
				t.Errorf("FileStore temp dirs left behind: %v", left)
			}
		}
	}
}
