package mi

import "autoindex/internal/metrics"

// Missing-index pipeline instrumentation (§5.2): candidates surviving
// the seek/slope filters versus candidates the merge, existing-index,
// and classifier stages discard.
var (
	descPasses = metrics.NewCounterDesc("mi.passes",
		"missing-index recommendation passes")
	descCandidatesGenerated = metrics.NewCounterDesc("mi.candidates_generated",
		"candidates built from DMV histories (post seek/slope filters)")
	descCandidatesPruned = metrics.NewCounterDesc("mi.candidates_pruned",
		"candidates dropped by merging, existing-index dedup, classifier, or the top-k cut")
)
