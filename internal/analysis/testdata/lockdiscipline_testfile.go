// TestFixtureCorpus loads this file as a _test.go file. lockdiscipline
// polices test code too, so the double lock below is reported;
// lockorder skips test sources, so the re-acquiring call in outer is
// not (outside a test file it would be, see lockorder_reacquire.go).
package fixture

import "sync"

type testBox struct {
	mu sync.Mutex
	n  int
}

func testDoubleLock(b *testBox) {
	b.mu.Lock()
	b.mu.Lock() // want "lockdiscipline: Lock of b.mu while already held on this path"
	b.mu.Unlock()
	b.mu.Unlock()
}

func (b *testBox) outer() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inner()
}

func (b *testBox) inner() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}
