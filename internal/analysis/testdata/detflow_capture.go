// Detflow fixtures, type-checked under "autoindex/internal/serve" (see
// fixtureOverrides). The serving path is sanctioned to *read* the wall
// clock — wallclock stays silent throughout this file — but detflow
// must still catch a sanctioned read whose value leaks into
// deterministic output. Minimized from the live-capture path: a session
// wall-timestamp stamped into a snapshot that fleet runs promise to
// reproduce byte-for-byte.
package fixture

import (
	"fmt"
	"sort"
	"time"

	"autoindex/internal/sim"
)

type captureSnap struct {
	started time.Time
}

// MarshalDeterministic is a determinism sink by contract: every
// snapshot type in the repo encodes through this name.
func (c captureSnap) MarshalDeterministic() []byte { return nil }

// stampSession reads the wall clock — legal in serve, so no wallclock
// finding here; the taint travels via the return-value fact instead.
func stampSession() time.Time {
	return time.Now()
}

func encodeCapture() []byte {
	cs := captureSnap{started: stampSession()}
	return cs.MarshalDeterministic() // want "detflow: value derived from wall-clock time .* reaches deterministic sink MarshalDeterministic snapshot encoding"
}

// encodeVirtual is the fix: the caller supplies a sim-derived
// timestamp. No diagnostic.
func encodeVirtual(now time.Time) []byte {
	cs := captureSnap{started: now}
	return cs.MarshalDeterministic()
}

// collectHashes leaks map-iteration order through its return value;
// maporder reports the loop itself, detflow follows the value across
// the call boundary below.
func collectHashes(m map[string]int) []string {
	var hashes []string
	for h := range m { // want "maporder: map iteration order leaks into append to hashes"
		hashes = append(hashes, h)
	}
	return hashes
}

func reportHashes(m map[string]int) {
	fmt.Println(collectHashes(m)) // want "detflow: value derived from map-iteration order .* reaches deterministic sink fmt.Println report output"
}

// reportHashesSorted is the fix: canonical order before emitting. No
// diagnostic from either check.
func collectHashesSorted(m map[string]int) []string {
	hashes := make([]string, 0, len(m))
	for h := range m {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	return hashes
}

func reportHashesSorted(m map[string]int) {
	fmt.Println(collectHashesSorted(m))
}

// collectHashesClosureSorted sorts in a closure after the loop, which
// counts for maporder and detflow alike. No diagnostic.
func collectHashesClosureSorted(m map[string]int) []string {
	var hashes []string
	for h := range m {
		hashes = append(hashes, h)
	}
	func() { sort.Strings(hashes) }()
	return hashes
}

func reportHashesClosureSorted(m map[string]int) { fmt.Println(collectHashesClosureSorted(m)) }

// emitStamp is tainted through its parameter: stampAndEmit passes it a
// wall-clock value, and the parameter fact carries the taint in.
func emitStamp(at time.Time) {
	fmt.Println(at) // want "detflow: value derived from wall-clock time .* reaches deterministic sink fmt.Println report output"
}

func stampAndEmit() {
	emitStamp(time.Now())
}

// stampBox.emit is tainted through its receiver: boxAndEmit calls it on
// a value built from the wall clock.
type stampBox struct {
	at time.Time
}

func (s stampBox) emit() {
	fmt.Println(s.at) // want "detflow: value derived from wall-clock time .* reaches deterministic sink fmt.Println report output"
}

func boxAndEmit() {
	s := stampBox{at: time.Now()}
	s.emit()
}

// emitVirtualNow reads time through the sim.Clock interface. Dispatch
// resolves Now to the sim stand-in in wallclock_sim.go, but internal/sim
// is a taint barrier and the virtual clock is deterministic by design:
// no diagnostic.
func emitVirtualNow(c sim.Clock) {
	fmt.Println(c.Now())
}
