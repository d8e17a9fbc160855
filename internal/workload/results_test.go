package workload

import (
	"fmt"
	"hash/fnv"
	"testing"

	"autoindex/internal/engine"
)

// TestStatementResultsFrozen pins what the engine answers to 1 000
// generated statements of each of two tenants — one with heap tables and
// user indexes, one all clustered without them: the column names, every
// row as rendered, the rows affected and any error, hashed in statement
// order. A change to execution that alters any result moves the hash, and
// so does a row handed out while something else still writes it.
func TestStatementResultsFrozen(t *testing.T) {
	for _, tc := range []struct {
		p    Profile
		want uint64
	}{
		{Profile{Name: "frozen-heaps", Tier: engine.TierStandard, Seed: 6, UserIndexes: true}, 0x3f80c43c3554da82},
		{Profile{Name: "frozen-clustered", Tier: engine.TierStandard, Seed: 2}, 0x9f1f4c667986a994},
	} {
		tn := newTenant(t, tc.p)
		h := fnv.New64a()
		for _, sql := range tn.Stream(1000) {
			res, err := tn.DB.Exec(sql)
			if err != nil {
				fmt.Fprintln(h, "error:", err)
				continue
			}
			fmt.Fprintln(h, res.Columns, res.RowsAffected)
			for _, r := range res.Rows {
				fmt.Fprintln(h, r)
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s: results hash %#016x, frozen at %#016x", tc.p.Name, got, tc.want)
		}
	}
}
