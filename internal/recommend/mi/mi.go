// Package mi implements the Missing-Indexes-based index recommender
// (§5.2). It periodically snapshots the volatile MI DMVs (tolerating
// resets from failovers and schema changes), accumulates each candidate's
// impact score over time, requires a statistically significant positive
// impact slope (a t-test on the regression slope) before recommending,
// performs conservative index merging, filters ad-hoc and low-impact
// candidates with a classifier trained on past validation outcomes, and
// returns the top-k candidates.
package mi

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"autoindex/internal/core"
	"autoindex/internal/dmv"
	"autoindex/internal/engine"
	"autoindex/internal/mathx"
	"autoindex/internal/schema"
)

// Config tunes the recommender.
type Config struct {
	// MinSeeks filters candidates triggered by too few optimizations
	// (ad-hoc queries).
	MinSeeks int64
	// MinSnapshots is the minimum number of snapshot points before the
	// slope test can pass ("a few data points are sufficient").
	MinSnapshots int
	// SlopeAlpha is the one-sided significance level for the impact-slope
	// t-test.
	SlopeAlpha float64
	// SlopeWindow caps the slope test to the most recent snapshots, so a
	// candidate whose workload stopped long ago stops being recommended
	// even though its all-time history trends upward.
	SlopeWindow int
	// TopK caps how many candidates one analysis returns.
	TopK int
	// MaxIncludeColumns bounds include lists.
	MaxIncludeColumns int
	// ClassifierThreshold is the minimum classifier score to keep a
	// candidate; 0 disables the classifier (ablation).
	ClassifierThreshold float64
	// DisableSlopeTest and DisableMerging support the ablation benchmarks.
	DisableSlopeTest bool
	DisableMerging   bool
}

// DefaultConfig returns production-like settings.
func DefaultConfig() Config {
	return Config{
		MinSeeks:            5,
		MinSnapshots:        3,
		SlopeAlpha:          0.05,
		SlopeWindow:         10,
		TopK:                5,
		MaxIncludeColumns:   3,
		ClassifierThreshold: 0.30,
	}
}

// snapPoint is one snapshot observation of a candidate's cumulative score.
type snapPoint struct {
	at    time.Time
	score float64
}

// history tracks one candidate across snapshots, compensating for DMV
// resets: when the raw score drops, a reset happened and the previous
// cumulative total becomes an offset.
type history struct {
	entry   *dmv.Entry
	offset  float64
	lastRaw float64
	points  []snapPoint
	seeks   int64
}

// Recommender is the MI-based recommender for one database.
type Recommender struct {
	cfg Config
	db  *engine.Database

	mu        sync.Mutex
	histories map[string]*history
	// classifier filters low-impact candidates; trained from validation
	// outcomes via TrainFromValidation.
	classifier *mathx.Logistic
	snapshots  int
}

// New returns a recommender over db with its own classifier.
func New(db *engine.Database, cfg Config) *Recommender {
	return NewWithClassifier(db, cfg, mathx.NewLogistic(4))
}

// NewWithClassifier returns a recommender sharing clf with other
// databases. The paper trains the low-impact classifier on validation
// outcomes across the whole fleet ("hundreds of thousands of databases",
// §5.2), so the control plane passes one classifier to every database's
// recommender. Access is serialized by the control plane's service loop.
func NewWithClassifier(db *engine.Database, cfg Config, clf *mathx.Logistic) *Recommender {
	if cfg.TopK == 0 {
		cfg = DefaultConfig()
	}
	return &Recommender{
		cfg:        cfg,
		db:         db,
		histories:  make(map[string]*history),
		classifier: clf,
	}
}

// TakeSnapshot reads the MI DMVs and folds them into the per-candidate
// histories. The control plane calls this on a schedule (§5.2).
func (r *Recommender) TakeSnapshot() {
	now := r.db.Clock().Now()
	snap := r.db.MissingIndexDMV().Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshots++
	for _, e := range snap {
		k := e.Candidate.Key()
		h := r.histories[k]
		if h == nil {
			h = &history{}
			r.histories[k] = h
		}
		raw := e.Score()
		if raw < h.lastRaw {
			// The DMV reset since the last snapshot; bank what we had.
			h.offset += h.lastRaw
		}
		h.lastRaw = raw
		h.entry = e
		h.seeks = e.Seeks // seeks also reset; keep the max epoch
		h.points = append(h.points, snapPoint{at: now, score: h.offset + raw})
	}
}

// Snapshots reports how many snapshots have been taken.
func (r *Recommender) Snapshots() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshots
}

// Recommend runs the full §5.2 pipeline and returns up to TopK candidates.
func (r *Recommender) Recommend() []core.Candidate {
	r.mu.Lock()
	defer r.mu.Unlock()
	reg := r.db.Metrics()
	reg.Counter(descPasses).Inc()
	// Walk histories in sorted-key order: candidate order feeds merging
	// and the final impact sort's tie-breaking, so map iteration here
	// would make the top-k set vary run to run.
	hkeys := make([]string, 0, len(r.histories))
	for k := range r.histories {
		hkeys = append(hkeys, k)
	}
	sort.Strings(hkeys)
	var cands []core.Candidate
	for _, k := range hkeys {
		h := r.histories[k]
		if h.entry == nil {
			continue
		}
		// Step 3: filter candidates with very few triggering optimizations.
		if h.seeks < r.cfg.MinSeeks {
			continue
		}
		// Step 4: statistically robust positive impact gradient.
		if !r.cfg.DisableSlopeTest && !r.slopePasses(h) {
			continue
		}
		c, ok := r.buildCandidate(h)
		if !ok {
			continue
		}
		cands = append(cands, c)
	}
	generated := int64(len(cands))
	reg.Counter(descCandidatesGenerated).Add(generated)
	defer func() {
		// Everything between candidate construction and the returned
		// top-k — merging, existing-index dedup, classifier, the cut —
		// counts as pruning.
		reg.Counter(descCandidatesPruned).Add(generated - int64(len(cands)))
	}()
	// Step 5: conservative merging.
	if !r.cfg.DisableMerging {
		cands = core.ConservativeMerge(cands)
	}
	// Drop candidates structurally identical to an existing index.
	cands = r.filterExisting(cands)
	// Classifier filter for low actual impact.
	if r.cfg.ClassifierThreshold > 0 {
		kept := cands[:0]
		for _, c := range cands {
			if r.classifier.Seen < 20 || r.classifier.Predict(c.Features, r.cfg.ClassifierThreshold) {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	// Top-k by impact; ties broken by name so the cut at TopK is stable.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].EstImprovement != cands[j].EstImprovement {
			return cands[i].EstImprovement > cands[j].EstImprovement
		}
		return cands[i].Def.Name < cands[j].Def.Name
	})
	if len(cands) > r.cfg.TopK {
		cands = cands[:r.cfg.TopK]
	}
	return cands
}

// slopePasses runs the t-test on the cumulative score slope (§5.2 step 4).
func (r *Recommender) slopePasses(h *history) bool {
	pts := h.points
	if w := r.cfg.SlopeWindow; w > 0 && len(pts) > w {
		pts = pts[len(pts)-w:]
	}
	if len(pts) < r.cfg.MinSnapshots {
		return false
	}
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	t0 := pts[0].at
	for i, p := range pts {
		xs[i] = p.at.Sub(t0).Hours()
		ys[i] = p.score
	}
	return mathx.SlopeSignificantlyPositive(xs, ys, r.cfg.SlopeAlpha)
}

// buildCandidate converts a DMV entry into an index definition following
// §5.2 step 1: EQUALITY columns become keys (most selective first), one
// INEQUALITY column becomes the trailing key, the rest are included.
func (r *Recommender) buildCandidate(h *history) (core.Candidate, bool) {
	e := h.entry
	t, ok := r.db.Table(e.Candidate.Table)
	if !ok {
		return core.Candidate{}, false // table dropped since
	}
	keys := append([]string(nil), e.Candidate.Equality...)
	sort.SliceStable(keys, func(i, j int) bool {
		return r.distinct(e.Candidate.Table, keys[i]) > r.distinct(e.Candidate.Table, keys[j])
	})
	include := append([]string(nil), e.Candidate.Include...)
	if len(e.Candidate.Inequality) > 0 {
		// Pick the most selective inequality column as the trailing key;
		// the rest become includes (§5.2: the choice is deferred to
		// merging, we use selectivity as the tie-break).
		ineq := append([]string(nil), e.Candidate.Inequality...)
		sort.SliceStable(ineq, func(i, j int) bool {
			return r.distinct(e.Candidate.Table, ineq[i]) > r.distinct(e.Candidate.Table, ineq[j])
		})
		keys = append(keys, ineq[0])
		include = append(include, ineq[1:]...)
	}
	if len(keys) == 0 {
		return core.Candidate{}, false
	}
	if len(include) > r.cfg.MaxIncludeColumns {
		include = include[:r.cfg.MaxIncludeColumns]
	}
	def := schema.IndexDef{
		Name:            autoIndexName(e.Candidate.Table, keys),
		Table:           t.Def.Name,
		KeyColumns:      keys,
		IncludedColumns: dedupeExcluding(include, keys),
		AutoCreated:     true,
	}
	size := def.EstimatedSizeBytes(t.Def, t.RowCount)
	imp := h.points[len(h.points)-1].score
	var impacted []uint64
	for q := range e.QueryHashes {
		impacted = append(impacted, q)
	}
	sort.Slice(impacted, func(i, j int) bool { return impacted[i] < impacted[j] })
	feats := []float64{
		e.AvgImprovementPct / 100,
		math.Log1p(float64(h.seeks)),
		math.Log1p(float64(t.RowCount)),
		math.Log1p(float64(size)),
	}
	return core.Candidate{
		Def:               def,
		EstImprovement:    imp,
		EstImprovementPct: e.AvgImprovementPct,
		EstSizeBytes:      size,
		ImpactedQueries:   impacted,
		Source:            core.SourceMI,
		Features:          feats,
	}, true
}

func dedupeExcluding(cols, exclude []string) []string {
	seen := make(map[string]bool)
	for _, c := range exclude {
		seen[strings.ToLower(c)] = true
	}
	var out []string
	for _, c := range cols {
		lc := strings.ToLower(c)
		if !seen[lc] {
			seen[lc] = true
			out = append(out, c)
		}
	}
	return out
}

func (r *Recommender) distinct(table, col string) float64 {
	if st, ok := r.db.ColumnStats(table, col); ok && st != nil {
		return st.Distinct
	}
	return 1
}

// filterExisting removes candidates whose key columns duplicate an
// existing index on the same table.
func (r *Recommender) filterExisting(cands []core.Candidate) []core.Candidate {
	existing := r.db.IndexDefs()
	out := cands[:0]
	for _, c := range cands {
		dup := false
		for _, e := range existing {
			if strings.EqualFold(e.Table, c.Def.Table) && e.SameKey(c.Def) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// autoIndexName builds the service's deterministic index naming scheme.
func autoIndexName(table string, keys []string) string {
	name := "auto_ix_" + strings.ToLower(table)
	for _, k := range keys {
		name += "_" + strings.ToLower(k)
	}
	if len(name) > 96 {
		name = name[:96]
	}
	return name
}

// TrainFromValidation feeds a validation outcome back into the low-impact
// classifier (§5.2: "we use data from previous index validations ... to
// train a classifier").
func (r *Recommender) TrainFromValidation(features []float64, improved bool) {
	if len(features) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.classifier.Train(features, improved)
}

// ClassifierSeen reports how many validation outcomes trained the
// classifier.
func (r *Recommender) ClassifierSeen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.classifier.Seen
}

// Coverage computes MI workload coverage (§5.2): everything except
// inserts, and updates/deletes without predicates.
func (r *Recommender) Coverage(since time.Time) core.Coverage {
	var cov core.Coverage
	for _, q := range r.db.QueryStore().Costs(since) {
		cov.TotalCPU += q.TotalCPU
		// HasWritePredicates was classified from the parsed statement at
		// Query Store ingestion, so truncated text cannot misclassify a
		// write here.
		if q.IsWrite && !q.HasWritePredicates {
			continue
		}
		cov.AnalyzedCPU += q.TotalCPU
	}
	return cov
}

// String describes the recommender state.
func (r *Recommender) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("mi.Recommender(candidates=%d snapshots=%d classifierSeen=%d)",
		len(r.histories), r.snapshots, r.classifier.Seen)
}
