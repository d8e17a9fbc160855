package executor

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"autoindex/internal/value"
)

func rows(vals ...int64) []value.Row {
	out := make([]value.Row, len(vals))
	for i, v := range vals {
		out[i] = value.Row{value.NewInt(v)}
	}
	return out
}

func drainInts(s Source) []int64 {
	var out []int64
	for _, r := range Drain(s) {
		out = append(out, r[0].I)
	}
	return out
}

// keep drains a source as a consumer that keeps its rows must: by copying
// each one.
func keep(s Source) []value.Row {
	var out []value.Row
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		out = append(out, r.Clone())
	}
	return out
}

func TestProject(t *testing.T) {
	m := &Meter{}
	p := &Project{
		Child: &SliceSource{Rows: rows(1, 2)},
		Fn:    func(r value.Row) value.Row { return value.Row{value.NewInt(r[0].I * 10)} },
		Meter: m,
	}
	got := drainInts(p)
	if got[0] != 10 || got[1] != 20 {
		t.Fatalf("%v", got)
	}
}

func TestSortStableAndCharged(t *testing.T) {
	m := &Meter{}
	s := &Sort{
		Child: &SliceSource{Rows: rows(5, 3, 9, 1, 7)},
		Less:  func(a, b value.Row) bool { return a[0].I < b[0].I },
		Meter: m,
	}
	got := drainInts(s)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("not sorted: %v", got)
	}
	if m.CPUUnits <= 0 {
		t.Fatal("sort must charge CPU")
	}
}

func TestTop(t *testing.T) {
	top := &Top{Child: &SliceSource{Rows: rows(1, 2, 3, 4)}, N: 2}
	if got := drainInts(top); len(got) != 2 {
		t.Fatalf("%v", got)
	}
	empty := &Top{Child: &SliceSource{}, N: 3}
	if got := drainInts(empty); len(got) != 0 {
		t.Fatalf("%v", got)
	}
}

func makeRow(vals ...int64) value.Row {
	r := make(value.Row, len(vals))
	for i, v := range vals {
		r[i] = value.NewInt(v)
	}
	return r
}

func TestHashAggGrouped(t *testing.T) {
	m := &Meter{}
	// (group, measure)
	input := []value.Row{
		makeRow(1, 10), makeRow(2, 20), makeRow(1, 30), makeRow(2, 40), makeRow(1, 50),
	}
	agg := &HashAgg{
		Child:     &SliceSource{Rows: input},
		GroupCols: []int{0},
		Specs: []AggSpec{
			{Kind: AggKey, Col: 0},
			{Kind: AggCountStar},
			{Kind: AggSum, Col: 1},
			{Kind: AggMin, Col: 1},
			{Kind: AggMax, Col: 1},
			{Kind: AggAvg, Col: 1},
		},
		Meter: m,
	}
	out := Drain(agg)
	if len(out) != 2 {
		t.Fatalf("groups: %d", len(out))
	}
	byKey := map[int64]value.Row{}
	for _, r := range out {
		byKey[r[0].I] = r
	}
	g1 := byKey[1]
	if g1[1].I != 3 || g1[2].F != 90 || g1[3].I != 10 || g1[4].I != 50 || g1[5].F != 30 {
		t.Fatalf("group 1: %v", g1)
	}
}

func TestScalarAggEmptyInput(t *testing.T) {
	agg := &HashAgg{
		Child: &SliceSource{},
		Specs: []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Col: 0}},
		Meter: &Meter{},
	}
	out := Drain(agg)
	if len(out) != 1 {
		t.Fatal("scalar aggregate over empty input must yield one row")
	}
	if out[0][0].I != 0 || !out[0][1].IsNull() {
		t.Fatalf("empty scalar agg: %v", out[0])
	}
}

func TestAggNullHandling(t *testing.T) {
	input := []value.Row{
		{value.NewInt(1), value.NewNull()},
		{value.NewInt(1), value.NewInt(4)},
	}
	agg := &HashAgg{
		Child:     &SliceSource{Rows: input},
		GroupCols: []int{0},
		Specs:     []AggSpec{{Kind: AggCountCol, Col: 1}, {Kind: AggAvg, Col: 1}},
		Meter:     &Meter{},
	}
	out := Drain(agg)
	if out[0][0].I != 1 {
		t.Fatalf("COUNT(col) must skip NULLs: %v", out[0])
	}
	if out[0][1].F != 4 {
		t.Fatalf("AVG must skip NULLs: %v", out[0])
	}
}

func TestHashJoin(t *testing.T) {
	m := &Meter{}
	probe := []value.Row{makeRow(1, 100), makeRow(2, 200), makeRow(3, 300)}
	build := []value.Row{makeRow(1, 11), makeRow(1, 12), makeRow(3, 33)}
	j := &HashJoin{
		Probe: &SliceSource{Rows: probe}, Build: &SliceSource{Rows: build},
		ProbeCol: 0, BuildCol: 0, Meter: m,
	}
	// Key 1 matches twice, in build order, and key 3 once.
	want := []value.Row{makeRow(1, 100, 1, 11), makeRow(1, 100, 1, 12), makeRow(3, 300, 3, 33)}
	if out := keep(j); fmt.Sprint(out) != fmt.Sprint(want) {
		t.Fatalf("join rows %v, want %v", out, want)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	probe := []value.Row{{value.NewNull(), value.NewInt(1)}}
	build := []value.Row{{value.NewNull(), value.NewInt(2)}}
	j := &HashJoin{
		Probe: &SliceSource{Rows: probe}, Build: &SliceSource{Rows: build},
		ProbeCol: 0, BuildCol: 0, Meter: &Meter{},
	}
	if out := Drain(j); len(out) != 0 {
		t.Fatalf("NULL keys joined: %v", out)
	}
}

func TestNLJoin(t *testing.T) {
	m := &Meter{}
	outer := []value.Row{makeRow(1), makeRow(2), makeRow(1)}
	inner := map[int64][]value.Row{
		1: {makeRow(1, 10), makeRow(1, 11)},
		2: {makeRow(2, 20)},
	}
	j := &NLJoin{
		Outer:    &SliceSource{Rows: outer},
		OuterCol: 0,
		Bind: func(key value.Value) Source {
			return &SliceSource{Rows: inner[key.I]}
		},
		Meter: m,
	}
	out := Drain(j)
	if len(out) != 5 {
		t.Fatalf("nl join rows: %d", len(out))
	}
}

// Property: hash join output count equals the brute-force count.
func TestQuickHashJoinMatchesNestedLoops(t *testing.T) {
	f := func(a, b []uint8) bool {
		probe := make([]value.Row, len(a))
		for i, v := range a {
			probe[i] = makeRow(int64(v % 16))
		}
		build := make([]value.Row, len(b))
		for i, v := range b {
			build[i] = makeRow(int64(v % 16))
		}
		j := &HashJoin{
			Probe: &SliceSource{Rows: probe}, Build: &SliceSource{Rows: build},
			ProbeCol: 0, BuildCol: 0, Meter: &Meter{},
		}
		got := len(Drain(j))
		want := 0
		for _, p := range probe {
			for _, q := range build {
				if p[0].I == q[0].I {
					want++
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
