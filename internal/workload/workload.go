// Package workload generates and replays the synthetic multi-tenant
// workloads that stand in for Azure SQL Database's production diversity
// (DESIGN.md §1). Each tenant gets a randomized schema (tables, column
// kinds, data skew, correlated column pairs), a population of rows, a set
// of "user" indexes emulating prior human tuning, and a weighted mix of
// parameterized statement templates — point lookups, range scans, joins,
// group-bys, TOP-N, updates, deletes, inserts and bulk loads.
//
// Everything derives from the tenant's seed, so fleets are reproducible.
package workload

import (
	"fmt"
	"strings"

	"autoindex/internal/engine"
	"autoindex/internal/schema"
	"autoindex/internal/sim"
	"autoindex/internal/value"
)

// Profile configures one tenant database.
type Profile struct {
	Name string
	Tier engine.Tier
	Seed int64
	// Scale multiplies default row counts (1.0 = test-friendly defaults).
	Scale float64
	// WriteFraction is the share of write statements in the mix; if zero a
	// tier-appropriate value is drawn.
	WriteFraction float64
	// UserIndexes controls whether the generator creates the "user tuned"
	// indexes after population (Fig 6's User baseline needs them).
	UserIndexes bool
}

// ColumnSpec describes one generated column's data distribution.
type ColumnSpec struct {
	Name     string
	Kind     value.Kind
	Distinct int
	// ZipfS > 1 skews draws; 0 means uniform.
	ZipfS float64
	// CorrelatedWith, when set, makes this column a deterministic function
	// of another column (value % CorrFactor), breaking the optimizer's
	// independence assumption.
	CorrelatedWith string
	CorrFactor     int
	// Wide marks payload columns that fatten rows (making scans expensive
	// and covering indexes valuable).
	Wide bool
}

// TableSpec describes one generated table.
type TableSpec struct {
	Name    string
	Columns []ColumnSpec
	Rows    int
	// HasPK makes the table clustered on its first column.
	HasPK bool
	// FKOf links the table's fk column to another table's PK domain.
	FKOf string
}

// Tenant is a generated database plus its workload. Tenants stamped from
// an Archetype (see NewTenantFromArchetype) share their schema templates,
// base rows, statement templates and histogram statistics copy-on-write
// with every sibling of the same archetype; self-generated tenants own
// all of it.
type Tenant struct {
	Profile   Profile
	DB        *engine.Database
	Tables    []TableSpec
	Templates []*Template
	// Archetype is the template this tenant was stamped from; nil for
	// self-generated tenants.
	Archetype *Archetype
	rng       *sim.RNG
	// longQueryProb is the chance a statement holds a long shared lock.
	longQueryProb float64
	// insertIDs tracks the last synthetic primary key handed out per
	// table by insert templates; feedNext tracks the next id of each
	// table's ongoing bulk feed. Both live on the Tenant (not in template
	// closures) so templates can be shared across archetype siblings and
	// the state survives hibernation.
	insertIDs map[string]int64
	feedNext  map[string]int64
	// insertTails memoizes insertTail; it is not serialized.
	insertTails map[string]string
}

// Template is one parameterized statement pattern. Templates are
// stateless and shared across archetype siblings: all per-tenant state
// (RNG, insert ids, value pools are immutable) is reached through the
// tenant passed to Gen.
type Template struct {
	Name    string
	Weight  float64
	IsWrite bool
	// Gen produces a fresh SQL string with new literals, drawing from the
	// given tenant's streams.
	Gen func(tn *Tenant) string
}

// NewTenant generates, creates and populates a tenant database.
func NewTenant(p Profile, clock sim.Clock) (*Tenant, error) {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	rng := sim.NewRNG(p.Seed).Child("workload/" + p.Name)
	cfg := engine.DefaultConfig(p.Name, p.Tier, p.Seed)
	db := engine.New(cfg, clock)
	t := &Tenant{
		Profile:       p,
		DB:            db,
		rng:           rng,
		longQueryProb: 0.002,
		insertIDs:     make(map[string]int64),
		feedNext:      make(map[string]int64),
	}
	t.generateSchema()
	if err := t.createAndPopulate(); err != nil {
		return nil, err
	}
	t.generateTemplates()
	if p.UserIndexes {
		if err := t.createUserIndexes(); err != nil {
			return nil, err
		}
	}
	db.RebuildAllStats()
	return t, nil
}

// tierRows returns a base row count for the tier.
func (t *Tenant) tierRows() int {
	r := t.rng.Child("rows")
	switch t.Profile.Tier {
	case engine.TierBasic:
		return 800 + r.Intn(1500)
	case engine.TierStandard:
		return 2000 + r.Intn(4000)
	default:
		return 5000 + r.Intn(10000)
	}
}

var stringPools = []string{"status", "kind", "region", "category", "channel", "source"}

func (t *Tenant) generateSchema() {
	r := t.rng.Child("schema")
	nTables := 2 + r.Intn(4)
	if t.Profile.Tier == engine.TierPremium {
		nTables = 3 + r.Intn(4)
	}
	for i := 0; i < nTables; i++ {
		name := fmt.Sprintf("t%d_%s", i, tableNames[r.Intn(len(tableNames))])
		rows := int(float64(t.tierRows()) * t.Profile.Scale)
		if i > 0 {
			// Secondary tables are often smaller (dimensions) or larger
			// (facts); vary it.
			rows = int(float64(rows) * (0.2 + 1.6*r.Float64()))
		}
		if rows < 50 {
			rows = 50
		}
		ts := TableSpec{Name: name, Rows: rows, HasPK: r.Float64() < 0.85}
		ts.Columns = append(ts.Columns, ColumnSpec{Name: "id", Kind: value.Int, Distinct: rows})
		nCols := 4 + r.Intn(6)
		for c := 0; c < nCols; c++ {
			col := ColumnSpec{Name: fmt.Sprintf("c%d", c)}
			switch r.Intn(5) {
			case 0, 1: // int attribute
				col.Kind = value.Int
				col.Distinct = 2 + r.Intn(rows/2+2)
				if r.Float64() < 0.5 {
					col.ZipfS = 1.1 + r.Float64()
				}
			case 2: // categorical string
				col.Kind = value.String
				col.Name = fmt.Sprintf("%s%d", stringPools[r.Intn(len(stringPools))], c)
				col.Distinct = 2 + r.Intn(40)
				if r.Float64() < 0.6 {
					col.ZipfS = 1.2 + r.Float64()
				}
			case 3: // float measure
				col.Kind = value.Float
				col.Distinct = rows
			case 4: // wide payload
				col.Kind = value.String
				col.Name = fmt.Sprintf("payload%d", c)
				col.Distinct = rows
				col.Wide = true
			}
			ts.Columns = append(ts.Columns, col)
		}
		// Correlated pair with probability 0.35: c_corr = base % k.
		if r.Float64() < 0.35 {
			var base string
			for _, c := range ts.Columns[1:] {
				if c.Kind == value.Int && !c.Wide {
					base = c.Name
					break
				}
			}
			if base != "" {
				ts.Columns = append(ts.Columns, ColumnSpec{
					Name: "corr_" + base, Kind: value.Int,
					CorrelatedWith: base, CorrFactor: 2 + r.Intn(8),
				})
			}
		}
		// Foreign key to a previous table.
		if i > 0 && r.Float64() < 0.8 {
			parent := t.Tables[r.Intn(i)]
			ts.Columns = append(ts.Columns, ColumnSpec{
				Name: "fk_" + parent.Name, Kind: value.Int,
				Distinct: parent.Rows,
				ZipfS:    1.1 + r.Float64()*0.8,
			})
			ts.FKOf = parent.Name
		}
		t.Tables = append(t.Tables, ts)
	}
}

var tableNames = []string{"orders", "events", "items", "accounts", "sessions", "invoices", "shipments", "tickets", "logs", "users"}

func (t *Tenant) createAndPopulate() error {
	r := t.rng.Child("data")
	for _, ts := range t.Tables {
		def := schema.Table{Name: ts.Name}
		for _, c := range ts.Columns {
			col := schema.Column{Name: c.Name, Kind: c.Kind, Nullable: c.Name != "id"}
			if c.Wide {
				col.AvgWidth = 120
			}
			def.Columns = append(def.Columns, col)
		}
		if ts.HasPK {
			def.PrimaryKey = []string{"id"}
		}
		if err := t.DB.CreateTable(def); err != nil {
			return err
		}
		// Populate through a bulk source (cheap, avoids parsing per row).
		rows := generateRows(ts, ts.Rows, r.Child(ts.Name))
		src := "seed_" + ts.Name
		t.DB.RegisterBulkSource(src, func(n int64) []value.Row {
			if int(n) > len(rows) {
				n = int64(len(rows))
			}
			return rows[:n]
		})
		stmt := fmt.Sprintf("BULK INSERT %s FROM DATASOURCE %s", ts.Name, src)
		parsed, err := parseBulk(stmt, int64(len(rows)))
		if err != nil {
			return err
		}
		if _, err := t.DB.ExecStmt(parsed); err != nil {
			return err
		}
		t.registerFeed(ts)
	}
	return nil
}

// registerFeed installs the ongoing bulk-feed source for one table. Feed
// rows derive from seed-keyed child streams (no positional state), so the
// only mutable state is the next id, held on the Tenant where hibernation
// can reach it.
func (t *Tenant) registerFeed(ts TableSpec) {
	feed := "feed_" + ts.Name
	spec := ts
	t.feedNext[ts.Name] = int64(ts.Rows)
	t.DB.RegisterBulkSource(feed, func(n int64) []value.Row {
		out := generateRows(spec, int(n), t.rng.Child("data").Child("feed/"+spec.Name))
		for i := range out {
			t.feedNext[spec.Name]++
			out[i][0] = value.NewInt(t.feedNext[spec.Name])
		}
		return out
	})
}

// nextInsertID advances and returns the synthetic primary key stream for
// insert templates; ids start far above seeded/bulk ranges.
func (t *Tenant) nextInsertID(table string) int64 {
	id, ok := t.insertIDs[table]
	if !ok {
		id = 1 << 40
	}
	id++
	t.insertIDs[table] = id
	return id
}

// insertTail returns what follows the id in an INSERT into ts: the other
// values, drawn from the stream "ins/<table>", which restarts at the same
// seed whenever it is derived, so they are computed once per tenant.
func (t *Tenant) insertTail(ts TableSpec) string {
	tail, ok := t.insertTails[ts.Name]
	if !ok {
		for _, v := range generateRows(ts, 1, t.rng.Child("ins/"+ts.Name))[0][1:] {
			tail += ", " + v.String()
		}
		if t.insertTails == nil {
			t.insertTails = make(map[string]string)
		}
		t.insertTails[ts.Name] = tail + ")"
	}
	return t.insertTails[ts.Name]
}

// lastInsertID returns the most recently handed-out insert id (the base
// of the range when no insert has happened yet).
func (t *Tenant) lastInsertID(table string) int64 {
	if id, ok := t.insertIDs[table]; ok {
		return id
	}
	return 1 << 40
}

// generateRows produces rows following the table's column distributions.
// It draws only from name-keyed child streams of r, never from r itself,
// so callers can pass a freshly derived child and two calls with the same
// (spec, n, seed) produce identical rows.
func generateRows(ts TableSpec, n int, r *sim.RNG) []value.Row {
	// Per-column samplers.
	type sampler func(rowID int64, row value.Row) value.Value
	samplers := make([]sampler, len(ts.Columns))
	ordOf := make(map[string]int)
	for i, c := range ts.Columns {
		ordOf[strings.ToLower(c.Name)] = i
	}
	for i, c := range ts.Columns {
		c := c
		switch {
		case c.Name == "id":
			samplers[i] = func(rowID int64, _ value.Row) value.Value { return value.NewInt(rowID) }
		case c.CorrelatedWith != "":
			base := ordOf[strings.ToLower(c.CorrelatedWith)]
			factor := int64(c.CorrFactor)
			samplers[i] = func(_ int64, row value.Row) value.Value {
				return value.NewInt(row[base].I % factor)
			}
		case c.Kind == value.Int:
			d := uint64(c.Distinct)
			if d < 2 {
				d = 2
			}
			if c.ZipfS > 1 {
				z := r.Child(c.Name).NewZipf(c.ZipfS, d)
				samplers[i] = func(_ int64, _ value.Row) value.Value { return value.NewInt(int64(z.Uint64())) }
			} else {
				cr := r.Child(c.Name)
				samplers[i] = func(_ int64, _ value.Row) value.Value { return value.NewInt(cr.Int63n(int64(d))) }
			}
		case c.Kind == value.String && !c.Wide:
			d := uint64(c.Distinct)
			if d < 2 {
				d = 2
			}
			if c.ZipfS > 1 {
				z := r.Child(c.Name).NewZipf(c.ZipfS, d)
				samplers[i] = func(_ int64, _ value.Row) value.Value {
					return value.NewString(fmt.Sprintf("%s_%d", c.Name, z.Uint64()))
				}
			} else {
				cr := r.Child(c.Name)
				samplers[i] = func(_ int64, _ value.Row) value.Value {
					return value.NewString(fmt.Sprintf("%s_%d", c.Name, cr.Intn(int(d))))
				}
			}
		case c.Wide:
			cr := r.Child(c.Name)
			samplers[i] = func(rowID int64, _ value.Row) value.Value {
				return value.NewString(fmt.Sprintf("blob-%d-%d-%s", rowID, cr.Intn(1<<20), strings.Repeat("x", 32)))
			}
		case c.Kind == value.Float:
			cr := r.Child(c.Name)
			samplers[i] = func(_ int64, _ value.Row) value.Value {
				return value.NewFloat(cr.LogNormal(100, 0.8))
			}
		default:
			samplers[i] = func(_ int64, _ value.Row) value.Value { return value.NewNull() }
		}
	}
	rows := make([]value.Row, n)
	for rowID := 0; rowID < n; rowID++ {
		row := make(value.Row, len(ts.Columns))
		for i := range ts.Columns {
			row[i] = samplers[i](int64(rowID), row)
		}
		rows[rowID] = row
	}
	return rows
}
