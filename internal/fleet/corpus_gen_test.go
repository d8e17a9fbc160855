package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGenerateFuzzCorpus regenerates the committed seed corpus for
// FuzzHibernateDecode. Skipped by default — run with
//
//	GEN_FUZZ_CORPUS=1 go test -run TestGenerateFuzzCorpus ./internal/fleet
//
// after changing the snapshot format so the corpus keeps exercising the
// real envelope layout (magic, version, body length, checksum) rather
// than a stale one. Corpus entries use the `go test fuzz v1` encoding
// the fuzzer reads natively.
//
// Regenerating does not delete entries. bitflip-14924 and bitflip-44768
// are bit-flipped snapshots in the version-1 format, kept on purpose: the
// decoder must refuse a damaged snapshot of an earlier format with an
// error, never a panic.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("GEN_FUZZ_CORPUS") == "" {
		t.Skip("set GEN_FUZZ_CORPUS=1 to regenerate the committed corpus")
	}
	_, valid := fuzzSetup(t)

	entries := map[string][]byte{
		"valid-snapshot":     valid,
		"empty":              {},
		"magic-only":         valid[:4],
		"truncated-body":     valid[:len(valid)/2],
		"truncated-checksum": valid[:len(valid)-2],
		"bad-magic":          append([]byte("NSXA"), valid[4:]...),
		"garbage-length":     garbageLength(),
	}
	for _, at := range []int{5, len(valid) / 3, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[at] ^= 0x40
		entries[fmt.Sprintf("bitflip-%d", at)] = flipped
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzHibernateDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
