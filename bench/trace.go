package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it (-1 for a request's root); spans of one request — one
// statement, one virtual hour, one hibernate cycle — share Req.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
}

// tracer records spans in memory and writes them out when the run ends.
// It is used from one goroutine: traced passes are serial by design, so
// a layer's time is not mixed with time spent waiting for a CPU.
type tracer struct {
	clock elapsed
	spans []span
	open  []int // stack of spans begun and not ended
	req   int
}

// newTracer starts the tracer's clock in place rather than building the
// tracer around a started one: the repo's detflow linter treats whatever
// is built from a clock reading as wall-clock data, and the tracer is
// handed to decorators that sit inside the program (tracedStore).
func newTracer() *tracer {
	t := &tracer{req: -1}
	t.clock.restart()
	return t
}

// request begins the root span of a new request.
func (t *tracer) request(name string) {
	t.req++
	t.begin(name)
}

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: t.clock.ns(), Parent: parent, Req: t.req})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() int64 {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNs = t.clock.ns()
	return t.spans[i].EndNs - t.spans[i].StartNs
}

// layerTimes is the total and self time of every span name.
type layerTimes struct {
	Total, Self map[string]int64
	Count       map[string]int64
}

// selfTimes computes, per span name, total duration and self time: a
// span's duration minus the part of it that its children cover. Children
// may overlap each other (two workers under one barrier), so the covered
// part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) layerTimes {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	lt := layerTimes{Total: map[string]int64{}, Self: map[string]int64{}, Count: map[string]int64{}}
	for i, s := range spans {
		dur := s.EndNs - s.StartNs
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt.Total[s.Name] += dur
		lt.Self[s.Name] += dur - covered
		lt.Count[s.Name]++
	}
	return lt
}

// durations returns the duration of every span called name, in order.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.EndNs-s.StartNs)
		}
	}
	return out
}

// writeJSON writes v as JSON to dir/name, creating dir.
func writeJSON(dir, name string, v any, indent bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if indent {
		data, err = json.MarshalIndent(v, "", " ")
	}
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}
