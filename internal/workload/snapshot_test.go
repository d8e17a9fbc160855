package workload

import (
	"bytes"
	"errors"
	"testing"

	"autoindex/internal/snap"
)

func sealedTenant(tn *Tenant) []byte {
	var w snap.Writer
	tn.EncodeTo(&w)
	return w.Seal()
}

// A stamped tenant with some history — id streams advanced, shared rows
// still aliased — goes through hibernation's Release and reads its own
// snapshot back to the byte.
func TestTenantSnapshotRoundTrip(t *testing.T) {
	_, sibs := stampSiblings(t, 1)
	tn := sibs[0]
	tn.Run(0, 60)
	tn.DB.Park()
	blob := sealedTenant(tn)
	streams := len(tn.insertIDs)
	tn.Release()

	r, err := snap.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.DecodeFrom(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if streams == 0 || len(tn.insertIDs) != streams {
		t.Fatalf("id streams: %d decoded, %d before hibernation", len(tn.insertIDs), streams)
	}
	if !bytes.Equal(sealedTenant(tn), blob) {
		t.Fatal("encode → decode → encode is not byte-identical")
	}
	if st := tn.Run(0, 5); st.Statements == 0 {
		t.Fatal("rehydrated tenant cannot replay")
	}
}

// An id stream listed twice is corruption, not a silent last-one-wins.
func TestTenantDecodeRejectsRepeatedIDStream(t *testing.T) {
	_, sibs := stampSiblings(t, 1)
	tn := sibs[0]
	before := sealedTenant(tn)

	var w snap.Writer
	w.Uvarint(0) // workload RNG position
	w.Uvarint(2) // insert id streams
	w.String("orders")
	w.Varint(10)
	w.String("orders")
	w.Varint(99)
	r, err := snap.Open(w.Seal())
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.DecodeFrom(r); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for a repeated id-stream key, got %v", err)
	}
	if !bytes.Equal(sealedTenant(tn), before) {
		t.Fatal("a refused snapshot changed the tenant")
	}
}
