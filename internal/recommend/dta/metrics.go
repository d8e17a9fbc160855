package dta

import "autoindex/internal/metrics"

// DTA pass instrumentation (§5.3): how often the tuner runs and how many
// candidates each pass surfaces and discards. What-if optimizer calls are
// counted by the optimizer package itself (optimizer.whatif_calls).
var (
	descPasses = metrics.NewCounterDesc("dta.passes",
		"DTA recommendation passes started")
	descCandidatesGenerated = metrics.NewCounterDesc("dta.candidates_generated",
		"distinct candidate indexes entering the DTA pool (per-query + MI augmentation)")
	descCandidatesPruned = metrics.NewCounterDesc("dta.candidates_pruned",
		"DTA pool candidates dropped for duplicating an existing index")
	descEnumPruned = metrics.NewCounterDesc("dta.enumeration_pruned",
		"greedy-enumeration candidate evaluations skipped by exact upper-bound domination")
)
