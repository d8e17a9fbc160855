package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// nSlices is how many equal-count pieces a timed region of statements
// is cut into. Throughput and latency are computed per slice and the
// median over slices is reported: a neighbour's burst on a shared host
// lands in a few slices, not in the median.
const nSlices = 20

// op is one completed operation of a timed region: when it finished
// (ns since the region began) and how long its caller waited for it.
type op struct {
	end int64
	lat int64
}

// cutSlices splits ops, which must be sorted by end, into n slices of
// equal count; the remainder is spread over the first slices so no op is
// dropped. Fewer ops than slices yields one slice per op.
func cutSlices(ops []op, n int) [][]op {
	if n > len(ops) {
		n = len(ops)
	}
	out := make([][]op, 0, n)
	base, extra := 0, 0
	if n > 0 {
		base, extra = len(ops)/n, len(ops)%n
	}
	at := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, ops[at:at+size])
		at += size
	}
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by the
// nearest-rank rule, so the result is always a value that was observed.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of values (mean of the two middle ones for
// an even count). It sorts a copy.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the quartiles of a set of per-slice values, printed next to
// the median so a reader sees how far slices disagreed.
type spread struct {
	Q1, Median, Q3 float64
	N              int
}

func spreadOf(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return spread{Q1: quantile(s, 0.25), Median: median(s), Q3: quantile(s, 0.75), N: len(s)}
}

// sliceStats is what one timed region reduces to.
type sliceStats struct {
	// PerSecond is operations per second, P50 and P99 latency in
	// microseconds: each the median over slices of the per-slice value.
	PerSecond, P50, P99 spread
	// Slices is how many slices the region was cut into, PerSlice the
	// sample count behind each per-slice percentile and Beyond99 how many
	// of those lie beyond the p99.
	Slices, PerSlice, Beyond99 int
}

// beyond is how many of n samples lie beyond their q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// reduce sorts ops by completion, cuts them into n slices and computes
// the per-slice estimators. A region too short to leave ten samples
// beyond a slice's p99 is one slice: slices that small are not alike (a
// handful of heavy statements decides each one's time), and the median of
// unlike slices moves more between runs than the whole region does.
func reduce(ops []op, n int) sliceStats {
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	if beyond(len(ops)/n, 0.99) < 10 {
		n = 1
	}
	slices := cutSlices(ops, n)
	var rate, p50, p99 []float64
	prevEnd := int64(0)
	for _, sl := range slices {
		lats := latenciesMicros(sl)
		last := sl[len(sl)-1].end
		if span := last - prevEnd; span > 0 {
			rate = append(rate, float64(len(sl))/(float64(span)/1e9))
		}
		prevEnd = last
		p50 = append(p50, quantile(lats, 0.50))
		p99 = append(p99, quantile(lats, 0.99))
	}
	st := sliceStats{PerSecond: spreadOf(rate), P50: spreadOf(p50), P99: spreadOf(p99), Slices: len(slices)}
	if len(slices) > 0 {
		st.PerSlice = len(slices[0])
	}
	st.Beyond99 = beyond(st.PerSlice, 0.99)
	return st
}

func latenciesMicros(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.lat) / 1e3
	}
	sort.Float64s(out)
	return out
}

// digest is the FNV-64a of a report text: equal digests mean the
// program made the same tuning decisions.
func digest(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
