package controlplane

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/engine"
	"autoindex/internal/schema"
)

// InvariantTarget pairs a managed database with the index set it had
// before the control plane made any changes. Chaos harnesses capture the
// baseline at Manage time and hand it back at check time.
type InvariantTarget struct {
	DB *engine.Database
	// Baseline is the database's index set before any auto-index activity.
	Baseline []schema.IndexDef
}

// Violation is one invariant breach found by CheckInvariants.
type Violation struct {
	Database string
	Rule     string
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: [%s] %s", v.Database, v.Rule, v.Detail)
}

// Invariant rule names, stable for assertions and reports.
const (
	RuleInFlight  = "in-flight-after-drain"
	RuleStuck     = "stuck-record"
	RuleDuplicate = "duplicate-auto-index"
	RuleOrphan    = "orphan-auto-index"
	RuleMissing   = "missing-index"
)

// CheckInvariants audits the persisted record states against the actual
// engine catalogs after a chaos run has drained. It asserts the §4/§7
// graceful-degradation contract: whatever schedule of faults and crashes
// was injected, the system must settle with
//
//   - no record still mid-flight (the drain gave every record time to
//     reach Active or a terminal state),
//   - no mid-flight record stuck past cfg.StuckAfter (health-check
//     invariant, §4) and no Active one past cfg.RecommendationTTL (the
//     expiry service's bound; Active waits for a human, so the health
//     service deliberately leaves it alone),
//   - no two auto-created indexes with identical keys on one table
//     (re-executed creates must adopt, never duplicate),
//   - no auto-created index unaccounted for by some record (a crash must
//     not leak an index whose record forgot it),
//   - every index the records promise present actually present — in
//     particular a Reverted record leaves exactly the pre-change set.
//
// Records are applied to the expected set in (UpdatedAt, ID) order. A
// successful drop discharges requirements for every signature sharing
// its key columns, not just its own: a reverted drop may have adopted a
// key-equivalent index instead of re-creating the original, and a later
// intentional drop of that stand-in must not leave the original's
// expectation dangling.
// Error-state and still-in-flight records make their index ambiguous
// (legitimately present or absent, since the failure may have struck on
// either side of the DDL) — ambiguity never excuses a duplicate, and an
// in-flight record is already its own violation. Indexes whose table or
// columns no longer exist are pruned from expectations: the customer
// schema-change cascade (§8.3) drops them outside the state machine.
//
// Violations are returned sorted by database, then rule, then detail, so
// output is deterministic for a given store state.
func CheckInvariants(store Store, targets map[string]InvariantTarget, cfg Config, now time.Time) []Violation {
	var out []Violation
	names := make([]string, 0, len(targets))
	for name := range targets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, checkDatabase(store, name, targets[name], cfg, now)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Database != b.Database {
			return a.Database < b.Database
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Detail < b.Detail
	})
	return out
}

func checkDatabase(store Store, name string, target InvariantTarget, cfg Config, now time.Time) []Violation {
	var out []Violation
	recs := store.Records(func(r *Record) bool { return r.Database == name })
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].UpdatedAt.Equal(recs[j].UpdatedAt) {
			return recs[i].UpdatedAt.Before(recs[j].UpdatedAt)
		}
		return recs[i].ID < recs[j].ID
	})

	// required: signatures that must exist. accounted: signatures an
	// auto-created index is allowed to have (baseline or explained by a
	// record). ambiguous: may be present or absent.
	required := make(map[string]bool)
	accounted := make(map[string]bool)
	ambiguous := make(map[string]bool)
	// sigKeys maps every signature seen to its (table, key columns) pair,
	// the equivalence class revert adoption works in.
	sigKeys := make(map[string]string)
	for _, def := range target.Baseline {
		if def.Hypothetical {
			continue
		}
		required[def.Signature()] = true
		accounted[def.Signature()] = true
		sigKeys[def.Signature()] = keySig(def)
	}

	for _, r := range recs {
		sig := r.Index.Signature()
		sigKeys[sig] = keySig(r.Index)
		switch {
		case !r.State.Terminal():
			if r.State != StateActive {
				out = append(out, Violation{name, RuleInFlight,
					fmt.Sprintf("record %s still %s (substate %q)", r.ID, r.State, r.SubState)})
			}
			// Mirror the services that bound each wait: healthService
			// watches everything mid-flight by StuckAfter, but an Active
			// record is waiting for a human and only expiryService's TTL
			// (measured from creation) bounds it.
			age, limit, bound := now.Sub(r.UpdatedAt), cfg.StuckAfter, "StuckAfter"
			if r.State == StateActive {
				age, limit, bound = now.Sub(r.CreatedAt), cfg.RecommendationTTL, "RecommendationTTL"
			}
			if age > limit {
				out = append(out, Violation{name, RuleStuck,
					fmt.Sprintf("record %s in %s for %s (> %s %s)", r.ID, r.State, age, bound, limit)})
			}
			// Mid-flight DDL may or may not have landed.
			if r.State != StateActive {
				ambiguous[sig] = true
				accounted[sig] = true
				delete(required, sig)
			}
		case r.State == StateError:
			// The failure may have struck before or after the DDL.
			ambiguous[sig] = true
			accounted[sig] = true
			delete(required, sig)
		case r.Action == core.ActionCreateIndex && r.State == StateSuccess:
			required[sig] = true
			accounted[sig] = true
			delete(ambiguous, sig)
		case r.Action == core.ActionCreateIndex:
			// Reverted or Expired: net no-op; the index must be gone
			// (unless something earlier still requires the signature).
			if !required[sig] {
				delete(accounted, sig)
				delete(ambiguous, sig)
			}
		case r.Action == core.ActionDropIndex && r.State == StateSuccess:
			delete(required, sig)
			delete(accounted, sig)
			delete(ambiguous, sig)
			// The flip side of revert adoption: a reverted drop may have
			// adopted a key-equivalent index instead of re-creating its
			// own, so an intentional drop of one member of the key class
			// discharges every outstanding requirement in that class.
			for s := range required {
				if sigKeys[s] == sigKeys[sig] {
					delete(required, s)
				}
			}
		default:
			// Drop Reverted/Expired: index restored or never dropped.
		}
	}

	// Prune expectations invalidated by customer schema changes: the §8.3
	// cascade drops auto-indexes when their table or columns vanish.
	actualDefs := target.DB.IndexDefs()
	for sig := range required {
		if !signatureStillValid(target.DB, sig, append(target.Baseline, recordDefs(recs)...)) {
			delete(required, sig)
		}
	}

	actual := make(map[string]schema.IndexDef)
	for _, def := range actualDefs {
		if def.Hypothetical {
			continue
		}
		actual[def.Signature()] = def
	}

	// A required signature is satisfied exactly, or by a key-equivalent
	// index (revert adoption: an equivalent index that landed mid-revert
	// stands in for the original).
	actualKeys := make(map[string]bool)
	for _, def := range actualDefs {
		if !def.Hypothetical {
			actualKeys[keySig(def)] = true
		}
	}
	sigDefs := make(map[string]schema.IndexDef)
	for _, def := range append(append([]schema.IndexDef(nil), target.Baseline...), recordDefs(recs)...) {
		if _, ok := sigDefs[def.Signature()]; !ok {
			sigDefs[def.Signature()] = def
		}
	}
	// Violations are part of chaos-run output, so emit them in sorted
	// signature order, not map order.
	for _, sig := range sortedSigs(required) {
		if _, ok := actual[sig]; ok {
			continue
		}
		if def, ok := sigDefs[sig]; ok && actualKeys[keySig(def)] {
			continue
		}
		out = append(out, Violation{name, RuleMissing, fmt.Sprintf("expected index %s absent", sig)})
	}
	for _, sig := range sortedSigs(actual) {
		if def := actual[sig]; def.AutoCreated && !accounted[sig] {
			out = append(out, Violation{name, RuleOrphan,
				fmt.Sprintf("auto-created index %s (%s) not explained by baseline or any record", def.Name, sig)})
		}
	}

	// Duplicate auto-indexes: identical key columns on the same table.
	autos := make([]schema.IndexDef, 0, len(actualDefs))
	for _, def := range actualDefs {
		if def.AutoCreated && !def.Hypothetical {
			autos = append(autos, def)
		}
	}
	for i := 0; i < len(autos); i++ {
		for j := i + 1; j < len(autos); j++ {
			if strings.EqualFold(autos[i].Table, autos[j].Table) && autos[i].SameKey(autos[j]) {
				out = append(out, Violation{name, RuleDuplicate,
					fmt.Sprintf("indexes %s and %s share key columns on %s", autos[i].Name, autos[j].Name, autos[i].Table)})
			}
		}
	}
	return out
}

// keySig canonicalises an index's (table, key columns) pair — the
// equivalence the duplicate and revert-adoption rules work in.
func keySig(def schema.IndexDef) string {
	return strings.ToLower(def.Table) + "(" + strings.ToLower(strings.Join(def.KeyColumns, ",")) + ")"
}

// recordDefs extracts the index definitions referenced by records.
func recordDefs(recs []*Record) []schema.IndexDef {
	out := make([]schema.IndexDef, 0, len(recs))
	for _, r := range recs {
		out = append(out, r.Index)
	}
	return out
}

// signatureStillValid reports whether the definition behind sig (looked up
// among defs) still has its table and every column in the live schema. If
// no definition matches the signature, the expectation is kept (true): an
// unmatchable signature should surface as a missing-index violation, not
// be silently pruned.
func signatureStillValid(db *engine.Database, sig string, defs []schema.IndexDef) bool {
	for _, def := range defs {
		if def.Signature() != sig {
			continue
		}
		t, ok := db.Table(def.Table)
		if !ok {
			return false
		}
		for _, col := range def.AllColumns() {
			if t.Def.ColumnIndex(col) < 0 {
				return false
			}
		}
		return true
	}
	return true
}

// sortedSigs returns m's signature keys in sorted order, so that
// violation reports do not depend on map iteration order.
func sortedSigs[V any](m map[string]V) []string {
	sigs := make([]string, 0, len(m))
	for s := range m {
		sigs = append(sigs, s)
	}
	sort.Strings(sigs)
	return sigs
}
