package workload

import (
	"strings"
	"testing"

	"autoindex/internal/sim"
	"autoindex/internal/snap"
)

func insertTemplate(t *testing.T, tn *Tenant) *Template {
	t.Helper()
	for _, tpl := range tn.Templates {
		if strings.HasSuffix(tpl.Name, "/insert") {
			return tpl
		}
	}
	t.Fatal("tenant has no insert template")
	return nil
}

// An INSERT's values are computed once per tenant and table, so a
// generated INSERT costs its id and its text, not a freshly seeded random
// stream per column.
func TestInsertGenerationAllocatesLittle(t *testing.T) {
	_, sibs := stampSiblings(t, 1)
	tn := sibs[0]
	tpl := insertTemplate(t, tn)
	tpl.Gen(tn)
	if allocs := testing.AllocsPerRun(200, func() { tpl.Gen(tn) }); allocs > 3 {
		t.Fatalf("%.0f allocations per generated INSERT, want at most 3", allocs)
	}
}

// The INSERT memo is derived state: a tenant that hibernates with it
// built and rehydrates without it generates the same text as its
// never-hibernated twin.
func TestRehydratedTenantGeneratesTwinsInserts(t *testing.T) {
	arch, sibs := stampSiblings(t, 1)
	tn := sibs[0]
	twin, err := NewTenantFromArchetype(arch, tn.Profile.Name, tn.Profile.Seed, sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	compare := func(phase string, n int) {
		t.Helper()
		got, want := tn.Stream(n), twin.Stream(n)
		inserts := 0
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s statement %d:\n got %s\nwant %s", phase, i, got[i], want[i])
			}
			if strings.HasPrefix(want[i], "INSERT INTO") {
				inserts++
			}
		}
		if inserts == 0 {
			t.Fatalf("%s: no INSERT among %d statements", phase, n)
		}
	}
	compare("before hibernation", 300)
	if len(tn.insertTails) == 0 {
		t.Fatal("no INSERT memo was built")
	}
	blob := sealedTenant(tn)
	tn.Release()
	r, err := snap.Open(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.DecodeFrom(r); err != nil {
		t.Fatal(err)
	}
	if tn.insertTails != nil {
		t.Fatal("the INSERT memo survived hibernation")
	}
	compare("after rehydration", 300)
}
