package main

import (
	"fmt"
	"io"
	"math"
)

// compareSets holds two runs of the same workloads against each other:
// every end-to-end metric must agree within its bound, every exact count
// and every decisions digest must be identical. It prints one line per
// comparison and returns the disagreements.
func compareSets(first, second []*outcome, w io.Writer) []string {
	bounds := make(map[string]float64, len(endToEnd))
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	var out []string
	disagree := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		out = append(out, msg)
		emit(w, "DISAGREE "+msg)
	}
	for i, a := range first {
		b := second[i]
		for _, ma := range a.Metrics {
			mb, ok := b.metric(ma.Name)
			bound, gated := bounds[ma.Name]
			if !ok || !gated || a.Traced {
				continue
			}
			diff := math.Abs(mb.Value-ma.Value) / ma.Value
			emit(w, fmt.Sprintf("%s agree %s %.6g vs %.6g %s diff=%.2f%% bound=%.0f%%", a.Workload, ma.Name, ma.Value, mb.Value, ma.Unit, diff*100, bound*100))
			if diff > bound {
				disagree("%s %s differs by %.2f%%, bound %.0f%%", a.Workload, ma.Name, diff*100, bound*100)
			}
		}
		if len(a.Counts) != len(b.Counts) {
			disagree("%s reports %d counts, then %d", a.Workload, len(a.Counts), len(b.Counts))
			continue
		}
		for k, ca := range a.Counts {
			if cb := b.Counts[k]; ca != cb {
				disagree("%s count %s is %d, then %s is %d", a.Workload, ca.Name, ca.Value, cb.Name, cb.Value)
			}
		}
		if a.Digest != b.Digest {
			disagree("%s decisions_digest is %s, then %s", a.Workload, a.Digest, b.Digest)
		}
	}
	return out
}
