package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"autoindex/internal/sim"
)

// LockManager models SQL Server's FIFO schema-lock scheduler at table
// granularity, including the managed lock priorities [43] the service uses
// to drop indexes without creating lock convoys (§8.3).
//
// Statement execution takes a shared schema lock; dropping an index takes
// an exclusive one. Because the real scheduler is FIFO, a *normal*
// priority exclusive request queued behind long-running shared holders
// blocks every later shared request — the convoy. A *low* priority request
// instead waits only while no shared holders exist and times out without
// ever blocking anyone.
//
// The simulation runs statements instantaneously in virtual time, so
// long-running holders are modelled explicitly: the workload replayer
// registers them with HoldShared(table, until).
type LockManager struct {
	clock sim.Clock
	mu    sync.Mutex
	locks map[string]*tableLock
}

type tableLock struct {
	// sharedUntil holds the release times of long-running shared holders.
	sharedUntil []time.Time
	// exclusiveWaiter is set while a normal-priority exclusive request is
	// queued (FIFO: it blocks later shared requests).
	exclusiveWaiter bool
}

// ErrLockTimeout is returned when a low-priority lock request gives up.
var ErrLockTimeout = fmt.Errorf("engine: lock request timed out at low priority")

// NewLockManager returns a lock manager on the given clock.
func NewLockManager(clock sim.Clock) *LockManager {
	return &LockManager{clock: clock, locks: make(map[string]*tableLock)}
}

func (lm *LockManager) lock(table string) *tableLock {
	l := lm.locks[lowerKey(table)]
	if l == nil {
		l = &tableLock{}
		lm.locks[lowerKey(table)] = l
	}
	return l
}

// lowerKey maps ASCII upper case to lower case, returning s itself when
// it has none.
func lowerKey(s string) string {
	if !strings.ContainsFunc(s, func(r rune) bool { return 'A' <= r && r <= 'Z' }) {
		return s
	}
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}

// HoldShared registers a long-running shared schema lock holder (a long
// query or transaction) that releases at the given virtual time.
func (lm *LockManager) HoldShared(table string, until time.Time) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.lock(table).sharedUntil = append(lm.lock(table).sharedUntil, until)
}

// activeShared counts holders that have not yet released.
func (l *tableLock) activeShared(now time.Time) int {
	n := 0
	kept := l.sharedUntil[:0]
	for _, u := range l.sharedUntil {
		if u.After(now) {
			kept = append(kept, u)
			n++
		}
	}
	l.sharedUntil = kept
	return n
}

// SharedBlocked reports whether a new shared request on table would block
// right now (i.e., a normal-priority exclusive request is queued ahead of
// it). The engine counts such statements as convoy victims.
func (lm *LockManager) SharedBlocked(table string) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	l := lm.lock(table)
	return l.exclusiveWaiter && l.activeShared(lm.clock.Now()) > 0
}

// AcquireExclusive acquires an exclusive schema lock on table.
//
// With lowPriority=false it queues FIFO: if shared holders are active the
// caller "waits" (virtual time advances to the last holder's release) and
// every statement arriving meanwhile is blocked behind it — the caller
// learns how long it waited. With lowPriority=true it never blocks others:
// if shared holders are still active after timeout, ErrLockTimeout is
// returned and the caller is expected to back off and retry (§8.3).
// Release the returned func promptly; exclusive work is instantaneous in
// virtual time.
func (lm *LockManager) AcquireExclusive(table string, lowPriority bool, timeout time.Duration) (release func(), waited time.Duration, err error) {
	lm.mu.Lock()
	l := lm.lock(table)
	now := lm.clock.Now()
	active := l.activeShared(now)
	if active == 0 {
		lm.mu.Unlock()
		return func() {}, 0, nil
	}
	if lowPriority {
		// Wait up to timeout without entering the FIFO queue.
		var latest time.Time
		for _, u := range l.sharedUntil {
			if u.After(latest) {
				latest = u
			}
		}
		wait := latest.Sub(now)
		if wait > timeout {
			lm.mu.Unlock()
			// The caller burns its timeout waiting, then gives up.
			lm.clock.Sleep(timeout)
			return nil, timeout, ErrLockTimeout
		}
		lm.mu.Unlock()
		lm.clock.Sleep(wait)
		return func() {}, wait, nil
	}
	// Normal priority: enter the FIFO queue, blocking later shared
	// requests, and wait for the holders to release. Holders release when
	// virtual time passes their deadline, so this polls until some other
	// goroutine advances the clock (in a single-threaded simulation a
	// normal-priority drop behind a long holder would genuinely stall — the
	// reason the service always drops at low priority, §8.3).
	l.exclusiveWaiter = true
	start := now
	lm.mu.Unlock()
	for {
		lm.mu.Lock()
		cur := lm.clock.Now()
		if l.activeShared(cur) == 0 {
			waited = cur.Sub(start)
			lm.mu.Unlock()
			break
		}
		lm.mu.Unlock()
		//lint:ignore wallclock real-time backoff while polling for another goroutine to advance the virtual clock; waited is measured in virtual time
		time.Sleep(200 * time.Microsecond)
	}
	return func() {
		lm.mu.Lock()
		l.exclusiveWaiter = false
		lm.mu.Unlock()
	}, waited, nil
}
