// Lockdiscipline fixtures: lock copies, unpaired locks, and
// double-locks.
package fixture

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func lockByValueParam(mu sync.Mutex) { // want "lockdiscipline: sync.Mutex passes a sync lock by value"
	mu.Lock()
	defer mu.Unlock()
}

func structByValueParam(g guarded) int { // want "lockdiscipline: guarded passes a sync lock by value"
	return g.n
}

// structByPointer is the fix: no diagnostic.
func structByPointer(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func derefCopy(g *guarded) {
	c := *g // want "lockdiscipline: assignment of .g to c copies a sync lock by value"
	c.n++
}

// pointerAlias copies the pointer, not the lock: no diagnostic.
func pointerAlias(g *guarded) {
	p := g
	_ = p
}

func rangeValueCopy(gs []guarded) int {
	n := 0
	for _, g := range gs { // want "lockdiscipline: range value g copies a sync lock each iteration"
		n += g.n
	}
	return n
}

// rangeByIndex is the fix: no diagnostic.
func rangeByIndex(gs []guarded) int {
	n := 0
	for i := range gs {
		n += gs[i].n
	}
	return n
}

func missingUnlock(g *guarded) {
	g.mu.Lock() // want "lockdiscipline: Lock of g.mu without a matching Unlock in the same function"
	g.n++
}

type rwGuarded struct {
	mu sync.RWMutex
	n  int
}

func missingRUnlock(r *rwGuarded) int {
	r.mu.RLock() // want "lockdiscipline: RLock of r.mu without a matching RUnlock in the same function"
	return r.n
}

// pairedRead and pairedWrite are disciplined: no diagnostics.
func pairedRead(r *rwGuarded) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}

func pairedWrite(g *guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
}

func doubleLockStraightLine(g *guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Lock() // want "lockdiscipline: Lock of g.mu while already held on this path"
	g.mu.Unlock()
	g.mu.Unlock()
}

// doubleLockPastBranch: the unlock happens only on the early-return
// branch, so the fall-through path still holds the lock.
func doubleLockPastBranch(g *guarded) {
	g.mu.Lock()
	if g.n > 0 {
		g.mu.Unlock()
		return
	}
	g.mu.Lock() // want "lockdiscipline: Lock of g.mu while already held on this path"
	g.mu.Unlock()
}

// relockAfterUnlock is sequentially disciplined: no diagnostic.
func relockAfterUnlock(g *guarded) {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	g.mu.Lock()
	g.n--
	g.mu.Unlock()
}

// branchBothLock: both branches acquire, the merge holds, and the
// single unlock after is fine (no double-lock, and unlocks exist).
func branchBothLock(g *guarded) {
	if g.n > 0 {
		g.mu.Lock()
	} else {
		g.mu.Lock()
	}
	g.n++
	g.mu.Unlock()
}

// deferThenRelock: a deferred unlock releases only at return, so
// re-locking before then deadlocks.
func deferThenRelock(g *guarded) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	g.mu.Lock() // want "lockdiscipline: Lock of g.mu while already held on this path"
	g.mu.Unlock()
}

// twoMutexes interleaved are independent: no diagnostic.
type twoLocks struct {
	a, b sync.Mutex
	n    int
}

func interleaved(t *twoLocks) {
	t.a.Lock()
	t.b.Lock()
	t.n++
	t.b.Unlock()
	t.a.Unlock()
}

// twoInstances locks the same field of two values of one type. The
// receivers render differently, so lockdiscipline sees two mutexes, and
// lockorder's per-field identity never orders a lock after itself: no
// diagnostic from either lock check.
func twoInstances(a, b *guarded) {
	a.mu.Lock()
	b.mu.Lock()
	a.n += b.n
	b.mu.Unlock()
	a.mu.Unlock()
}

// switchNoDefault: every case locks, but a switch without a default
// may match nothing. The merge keeps that unlocked entry state, so the
// Lock after the switch is not reported (the walk under-reports).
func switchNoDefault(g *guarded, k int) {
	switch k {
	case 0:
		g.mu.Lock()
	case 1:
		g.mu.Lock()
	}
	g.mu.Lock()
	g.mu.Unlock()
}

// switchDefault: with a default every path through the switch locks,
// so the Lock after it deadlocks.
func switchDefault(g *guarded, k int) {
	switch k {
	case 0:
		g.mu.Lock()
	default:
		g.mu.Lock()
	}
	g.mu.Lock() // want "lockdiscipline: Lock of g.mu while already held on this path"
	g.mu.Unlock()
	g.mu.Unlock()
}

// selectAllUnlock: a select always runs exactly one clause, and every
// clause unlocks, so the re-lock after it is fine: no diagnostic.
func selectAllUnlock(g *guarded, a, b chan int) {
	g.mu.Lock()
	select {
	case <-a:
		g.mu.Unlock()
	case <-b:
		g.mu.Unlock()
	}
	g.mu.Lock()
	g.mu.Unlock()
}

// selectKeeps: the clause that unlocks also returns, so it contributes
// nothing to the merge and the fall-through path still holds the lock.
func selectKeeps(g *guarded, a, b chan int) {
	g.mu.Lock()
	select {
	case <-a:
		g.n++
	case <-b:
		g.mu.Unlock()
		return
	}
	g.mu.Lock() // want "lockdiscipline: Lock of g.mu while already held on this path"
	g.mu.Unlock()
	g.mu.Unlock()
}
