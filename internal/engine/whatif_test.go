package engine

import (
	"testing"

	"autoindex/internal/schema"
)

// TestCostCacheKeyIsTheProjection pins the plan-cost cache key to (query,
// the what-if overlay as the statement's own tables see it): an index on a
// table the statement never references is a hit, an index on any table it
// does reference is a re-pricing, and the key carries the index shape, not
// just its name.
func TestCostCacheKeyIsTheProjection(t *testing.T) {
	d, _ := testDB(t)
	const join = `SELECT o.id, c.name FROM orders o JOIN customers c ON o.customer_id = c.id WHERE c.region = 'east'`
	onOrders := schema.IndexDef{Name: "h", Table: "orders", KeyColumns: []string{"customer_id"}}
	onCustomers := schema.IndexDef{Name: "h", Table: "Customers", KeyColumns: []string{"region"}}
	for _, tc := range []struct {
		name    string
		sql     string
		add     schema.IndexDef
		reprice bool
	}{
		{"select/unrelated table", `SELECT id FROM orders WHERE customer_id = 12`, onCustomers, false},
		{"select/own table", `SELECT id FROM orders WHERE customer_id = 12`, onOrders, true},
		{"join/from table", join, onOrders, true},
		{"join/joined table", join, onCustomers, true},
		{"update/target", `UPDATE orders SET amount = 1.5 WHERE customer_id = 12`, onOrders, true},
		{"update/unrelated table", `UPDATE orders SET amount = 1.5 WHERE customer_id = 12`, onCustomers, false},
		{"delete/target", `DELETE FROM orders WHERE customer_id = 12`, onOrders, true},
		{"insert/target", `INSERT INTO orders (id, customer_id, status, amount, created) VALUES (9000, 1, 'open', 1.5, 1)`, onOrders, true},
		{"insert/unrelated table", `INSERT INTO orders (id, customer_id, status, amount, created) VALUES (9000, 1, 'open', 1.5, 1)`, onCustomers, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := d.PlanCostCache()
			cache.Reset()
			s := d.NewWhatIfSession()
			stmt := mustParse(t, tc.sql)
			hash := stmt.Fingerprint()
			price := func(wantCall bool, what string) float64 {
				t.Helper()
				before := s.Calls()
				cost, _, err := s.CostQuery(hash, stmt)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if called := s.Calls() != before; called != wantCall {
					t.Fatalf("%s: optimizer called = %v, want %v", what, called, wantCall)
				}
				return cost
			}
			base := price(true, "base pricing")
			price(false, "base pricing again")

			s.Catalog().AddHypothetical(tc.add)
			price(tc.reprice, "after adding "+tc.add.Table+" index")
			entries := 1
			if tc.reprice {
				entries++
			}
			if cache.Len() != entries {
				t.Fatalf("cache holds %d entries, want %d", cache.Len(), entries)
			}

			// Same name, different key columns: a distinct entry.
			other := tc.add
			other.KeyColumns = []string{"id"}
			s.Catalog().RemoveHypothetical(tc.add.Name)
			s.Catalog().AddHypothetical(other)
			price(tc.reprice, "same name, other key columns")

			// Add then remove returns to the base entry.
			s.Catalog().RemoveHypothetical(other.Name)
			if again := price(false, "after removing it"); again != base {
				t.Fatalf("cost after add+remove = %v, want the base entry's %v", again, base)
			}
		})
	}

	t.Run("DisableCostCache", func(t *testing.T) {
		cache := d.PlanCostCache()
		cache.Reset()
		stmt := mustParse(t, join)
		hash := stmt.Fingerprint()
		if _, _, err := d.NewWhatIfSession().CostQuery(hash, stmt); err != nil {
			t.Fatal(err)
		}
		// The entry is there to be hit; the uncached arm neither reads it
		// nor adds its own.
		s := d.NewWhatIfSession()
		s.DisableCostCache = true
		for i := int64(1); i <= 2; i++ {
			if _, _, err := s.CostQuery(hash, stmt); err != nil {
				t.Fatal(err)
			}
			if s.Calls() != i || cache.Len() != 1 {
				t.Fatalf("pricing %d: %d optimizer calls, %d cache entries; want %d and 1", i, s.Calls(), cache.Len(), i)
			}
		}
	})
}
