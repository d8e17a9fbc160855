// The fixture driver type-checks this file under the import path
// "autoindex/internal/sim" and asserts the wallclock analyzer stays
// silent: the simulation substrate is the one place allowed to touch
// the real clock. There is deliberately no want and no //lint:ignore
// here — the exemption itself must do the suppressing. (A corpus-wide
// cmd/lint demo run loads the file under the testdata path instead,
// where this line correctly counts as a finding.)
package fixture

import "time"

func simWallNow() time.Time {
	return time.Now()
}

// simWall stands in for sim.WallClock. A sim.Clock.Now call resolves
// here by interface dispatch, and internal/sim's taint barrier keeps
// this time.Now from flowing back out (see emitVirtualNow in
// detflow_capture.go).
type simWall struct{}

func (simWall) Now() time.Time { return time.Now() }
