package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"autoindex/internal/sim"
	"autoindex/internal/snap"
	"autoindex/internal/workload"
)

// fuzzShared lazily builds the one archetype every fuzz execution stamps
// its throwaway tenant from, plus a canonical valid snapshot used to
// seed the corpus. Built once: archetype construction is far too heavy
// to repeat per exec, and the archetype itself is immutable.
var fuzzShared struct {
	once sync.Once
	arch *workload.Archetype
	blob []byte
	err  error
}

func fuzzSetup(tb testing.TB) (*workload.Archetype, []byte) {
	tb.Helper()
	fuzzShared.once.Do(func() {
		p := workload.Profile{Name: "fuzzarch", Seed: 777001, Scale: 0.2, UserIndexes: true}
		arch, err := workload.NewArchetype(p, sim.NewClock())
		if err != nil {
			fuzzShared.err = err
			return
		}
		fuzzShared.arch = arch
		tn, clock, err := fuzzTenant(arch)
		if err != nil {
			fuzzShared.err = err
			return
		}
		// A mid-run snapshot, not a pristine one: replay some statements so
		// the query store, DMVs and id streams all have content to corrupt.
		tn.Run(0, 40)
		_ = clock
		tn.DB.Park()
		fuzzShared.blob = hibernateTenant(tn)
	})
	if fuzzShared.err != nil {
		tb.Fatal(fuzzShared.err)
	}
	return fuzzShared.arch, fuzzShared.blob
}

func fuzzTenant(arch *workload.Archetype) (*workload.Tenant, *sim.VirtualClock, error) {
	clock := sim.NewClock()
	tn, err := workload.NewTenantFromArchetype(arch, "fuzztenant", 777999, clock)
	return tn, clock, err
}

// garbageLength is a current envelope header whose body-length varint
// runs past the end of the input: a length lie, not a version mismatch.
func garbageLength() []byte {
	return append([]byte(snap.Magic), snap.Version, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
}

// FuzzHibernateDecode fuzzes the hibernation decode path: whatever bytes
// arrive — a valid snapshot, a truncated one, a bit-flipped one, or pure
// garbage — rehydrateTenant must either succeed or return an error.
// Panics, hangs and unbounded allocations are the failure modes this
// guards against: in scale mode a decode panic would take down the whole
// fleet simulator, so corruption must always surface as an error.
// Seed corpus lives in testdata/fuzz/FuzzHibernateDecode (see
// corpus_gen_test.go for how it was produced).
func FuzzHibernateDecode(f *testing.F) {
	arch, valid := fuzzSetup(f)

	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:4])            // magic only
	f.Add(valid[:len(valid)/2]) // truncated body
	f.Add(valid[:len(valid)-2]) // truncated checksum
	f.Add(garbageLength())
	for _, at := range []int{5, len(valid) / 3, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0x40
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// A fresh stamped tenant per exec: a refused decode leaves the
		// tenant untouched, but an accepted mutant replaces its state, and
		// that must never become the next execution's starting point.
		tn, _, err := fuzzTenant(arch)
		if err != nil {
			t.Fatal(err)
		}
		if err := rehydrateTenant(tn, data); err != nil {
			return // corruption surfaced as an error: the contract held
		}
		// Decode accepted the bytes; the tenant must be usable.
		if st := tn.Run(0, 3); st.Statements == 0 {
			t.Fatalf("decode succeeded but tenant cannot replay")
		}
	})
}

// TestSnapshotFormatFrozen pins the wire format: a fresh snapshot of the
// fuzz tenant must equal the committed valid-snapshot corpus entry byte
// for byte. A codec change that moves a field, a sort order or an integer
// width fails here instead of silently orphaning every stored snapshot;
// a deliberate format change bumps snap.Version and regenerates the
// corpus (corpus_gen_test.go) in the same commit.
func TestSnapshotFormatFrozen(t *testing.T) {
	_, fresh := fuzzSetup(t)
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzHibernateDecode", "valid-snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	quoted := strings.TrimSuffix(strings.TrimPrefix(string(raw), "go test fuzz v1\n[]byte("), ")\n")
	committed, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatalf("corpus entry is not the `go test fuzz v1` encoding: %v", err)
	}
	if !bytes.Equal(fresh, []byte(committed)) {
		t.Fatalf("snapshot format moved: fresh snapshot is %d bytes, committed corpus entry %d", len(fresh), len(committed))
	}
}
