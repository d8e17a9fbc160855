package workload

import (
	"fmt"

	"autoindex/internal/engine"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
)

// Archetype is a tenant template built once and stamped onto many
// tenants. In a real multi-tenant fleet most databases are instances of
// a few application archetypes — same schema, same base data shape, same
// statement mix — so the simulator builds each archetype's expensive
// parts once (schema templates, base rows, statement templates, sampled
// histograms) and lets every stamped tenant alias them copy-on-write.
// A tenant forks a private copy only when tenant-local DDL or a
// statistics refresh actually diverges it from the template; everything
// else stays physically shared, which is what makes a 100k–1M tenant
// fleet fit one machine.
type Archetype struct {
	// Name identifies the archetype (it is also the template profile
	// name, so all derivation is keyed by it).
	Name string
	// Profile is the template profile; stamped tenants override Name and
	// Seed with their own.
	Profile Profile
	// Tables are the schema templates shared by every sibling.
	Tables []TableSpec
	// Templates is the shared statement mix; all per-tenant state is
	// reached through the Tenant passed to Gen.
	Templates []*Template
	// Indexes are the "user-tuned" indexes the template carries, stamped
	// onto each sibling at creation.
	Indexes []schema.IndexDef
	// Shared is the copy-on-write catalog (canonical table definitions,
	// base rows, their built trees and user indexes, histograms) every
	// stamp clones or aliases and the hibernation codec writes references
	// into.
	Shared *engine.SharedCatalog

	longQueryProb float64
}

// NewArchetype builds the template tenant for a profile and harvests it
// into a stampable archetype. The template database itself is discarded;
// only the shared catalog, statement templates and index definitions
// survive.
func NewArchetype(p Profile, clock sim.Clock) (*Archetype, error) {
	tpl, err := NewTenant(p, clock)
	if err != nil {
		return nil, err
	}
	a := &Archetype{
		Name:          p.Name,
		Profile:       tpl.Profile, // scale etc. normalized by NewTenant
		Tables:        tpl.Tables,
		Templates:     tpl.Templates,
		Indexes:       tpl.DB.IndexDefs(),
		Shared:        engine.NewSharedCatalog(),
		longQueryProb: tpl.longQueryProb,
	}
	// Canonical base rows: regenerate with the same seed-keyed streams
	// createAndPopulate used. generateRows draws only from name-keyed
	// children, so the regeneration is bit-identical to what the template
	// database was populated with. The catalog builds each table's tree
	// and then each user index over these rows once; every stamp clones
	// them.
	data := tpl.rng.Child("data")
	for _, ts := range a.Tables {
		def := tpl.DB.TableDefPtr(ts.Name)
		if def == nil {
			return nil, fmt.Errorf("workload: archetype %s: table %s missing from template", p.Name, ts.Name)
		}
		if err := a.Shared.AddTable(def, generateRows(ts, ts.Rows, data.Child(ts.Name))); err != nil {
			return nil, err
		}
	}
	for _, def := range a.Indexes {
		if err := a.Shared.AddIndex(def); err != nil {
			return nil, err
		}
	}
	// Canonical histograms: the template's sampled statistics, shared by
	// pointer until a tenant's own refresh forks them.
	for _, ts := range a.Tables {
		for _, c := range ts.Columns {
			if st := tpl.DB.StatPtr(ts.Name, c.Name); st != nil {
				a.Shared.AddStats(ts.Name, c.Name, st)
			}
		}
	}
	return a, nil
}

// NewTenantFromArchetype stamps a new tenant from the archetype: a fresh
// engine shell whose tables alias the archetype's definitions and base
// rows, whose statistics alias the archetype's histograms, and whose
// statement mix is the shared template slice. Construction does no row
// generation, no statistics builds and no tree builds — stamping cost is
// one structural copy of each of the catalog's trees (engine Stamp),
// whose index entries the tenant shares with every sibling until a write
// replaces them.
func NewTenantFromArchetype(a *Archetype, name string, seed int64, clock sim.Clock) (*Tenant, error) {
	p := a.Profile
	p.Name = name
	p.Seed = seed
	cfg := engine.DefaultConfig(name, p.Tier, seed)
	db := engine.New(cfg, clock)
	t := &Tenant{
		Profile:       p,
		DB:            db,
		Tables:        a.Tables,
		Templates:     a.Templates,
		Archetype:     a,
		rng:           sim.NewRNG(seed).Child("workload/" + name),
		longQueryProb: a.longQueryProb,
		insertIDs:     make(map[string]int64),
		feedNext:      make(map[string]int64),
	}
	db.Stamp(a.Shared, clock.Now())
	for _, ts := range a.Tables {
		t.registerFeed(ts)
	}
	return t, nil
}
