package optimizer

import (
	"fmt"
	"slices"
	"strings"

	"autoindex/internal/sqlparser"
)

// Cost model weights. Estimated and actual costs use the same units — one
// unit per logical page read, CPUPerRow units per row of CPU work — so the
// optimizer's estimate and the executor's measurement are directly
// comparable. The divergence between them comes from cardinality errors,
// not unit mismatches.
const (
	// CPUPerRow is the CPU charge for processing one row in an operator.
	CPUPerRow = 0.002
	// CPUPerCompare is the extra CPU charge per comparison in sorts.
	CPUPerCompare = 0.001
	// HashBuildPerRow is the CPU charge per row on a hash-build side.
	HashBuildPerRow = 0.004
	// RandomPageFactor penalises random page access (lookups) relative to
	// sequential scans.
	RandomPageFactor = 2.0
)

// NodeKind enumerates physical operators.
type NodeKind int

// Physical operator kinds.
const (
	KindSeqScan NodeKind = iota
	KindIndexSeek
	KindIndexScan
	KindSort
	KindHashJoin
	KindNLJoin
	KindHashAgg
	KindScalarAgg
	KindTop
	KindProject
	KindInsert
	KindUpdate
	KindDelete
)

// String names the operator.
func (k NodeKind) String() string {
	switch k {
	case KindSeqScan:
		return "SeqScan"
	case KindIndexSeek:
		return "IndexSeek"
	case KindIndexScan:
		return "IndexScan"
	case KindSort:
		return "Sort"
	case KindHashJoin:
		return "HashJoin"
	case KindNLJoin:
		return "NestedLoops"
	case KindHashAgg:
		return "HashAggregate"
	case KindScalarAgg:
		return "ScalarAggregate"
	case KindTop:
		return "Top"
	case KindProject:
		return "Project"
	case KindInsert:
		return "Insert"
	case KindUpdate:
		return "Update"
	case KindDelete:
		return "Delete"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one operator in a physical plan tree.
type Node struct {
	Kind  NodeKind
	Table string // base table name for access/write nodes
	Alias string // binding alias for access nodes
	Index string // index name for seeks/scans

	// SeekEq holds the equality predicates matched to the index key
	// prefix; SeekRange the (at most two: lower/upper) range predicates on
	// the following key column; Residual the predicates evaluated after
	// fetching.
	SeekEq    []sqlparser.Predicate
	SeekRange []sqlparser.Predicate
	Residual  []sqlparser.Predicate

	// Lookup is set when a non-covering seek must fetch the base row.
	Lookup bool

	// Join fields (left child is outer/probe, right child is inner/build).
	JoinLeft  sqlparser.ColRef
	JoinRight sqlparser.ColRef

	GroupBy []sqlparser.ColRef
	Items   []sqlparser.SelectItem
	OrderBy []sqlparser.OrderItem
	TopN    int

	// Write fields.
	WriteRows    float64  // estimated affected rows
	MaintIndexes []string // indexes maintained by the write
	Set          []sqlparser.Assignment

	Children []*Node

	// EstRows is the estimated output cardinality; EstCost the cumulative
	// estimated cost of the subtree.
	EstRows float64
	EstCost float64
}

// Plan is a complete physical plan for one statement.
type Plan struct {
	Stmt    sqlparser.Statement
	Root    *Node
	EstCost float64
	EstRows float64
	// IndexesUsed lists every index referenced anywhere in the plan,
	// including those maintained by writes. It feeds the Query Store plan
	// fingerprint that the validator's plan-change filter inspects.
	IndexesUsed []string
	PlanHash    uint64
	// QueryHash is the canonical statement fingerprint, computed once per
	// regular (non-what-if) optimization so Query Store ingestion and MI
	// emission share one derivation. Zero for what-if plans, which are
	// keyed externally by the plan-cost cache.
	QueryHash uint64
}

// shapeWriter receives a plan's shape: as text when text is set,
// otherwise folded straight into an FNV-1a hash.
type shapeWriter struct {
	text *strings.Builder
	hash uint64
}

func (w *shapeWriter) str(s string) {
	if w.text == nil {
		w.hash = sqlparser.HashString(w.hash, s, false)
	} else {
		w.text.WriteString(s)
	}
}

// lower writes strings.ToLower(s).
func (w *shapeWriter) lower(s string) {
	if w.text == nil {
		w.hash = sqlparser.HashString(w.hash, s, true)
	} else {
		w.text.WriteString(strings.ToLower(s))
	}
}

// shape serialises the plan's structure (operators, tables, indexes — not
// literals) for hashing and explain output.
func (n *Node) shape(w *shapeWriter, depth int) {
	for i := 0; i < depth; i++ {
		w.str("  ")
	}
	w.str(n.Kind.String())
	if n.Table != "" {
		w.str(" ")
		w.lower(n.Table)
	}
	if n.Index != "" {
		w.str(" [")
		w.lower(n.Index)
		w.str("]")
	}
	if n.Lookup {
		w.str(" +lookup")
	}
	if len(n.SeekEq)+len(n.SeekRange) > 0 {
		w.str(" seek(")
		for i, p := range n.SeekEq {
			if i > 0 {
				w.str(",")
			}
			w.lower(p.Col.Column)
		}
		for _, p := range n.SeekRange {
			w.str(";")
			w.lower(p.Col.Column)
			w.str(p.Op.String())
		}
		w.str(")")
	}
	for _, m := range n.MaintIndexes {
		w.str(" maint[")
		w.lower(m)
		w.str("]")
	}
	w.str("\n")
	for _, c := range n.Children {
		c.shape(w, depth+1)
	}
}

// Shape returns the plan's structural serialisation.
func (p *Plan) Shape() string {
	var b strings.Builder
	p.Root.shape(&shapeWriter{text: &b}, 0)
	return b.String()
}

// Explain renders the plan with estimates, for recommendation details and
// debugging.
func (p *Plan) Explain() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Kind.String())
		if n.Table != "" {
			fmt.Fprintf(&b, " %s", n.Table)
		}
		if n.Index != "" {
			fmt.Fprintf(&b, " [%s]", n.Index)
		}
		if n.Lookup {
			b.WriteString(" +lookup")
		}
		fmt.Fprintf(&b, "  (rows=%.1f cost=%.2f)\n", n.EstRows, n.EstCost)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}

// finalize fills PlanHash (FNV-1a of the shape), IndexesUsed and the
// plan's estimates from the tree.
func (p *Plan) finalize() {
	w := shapeWriter{hash: sqlparser.FNVOffset}
	if p.Root != nil {
		p.collectIndexes(p.Root)
		p.Root.shape(&w, 0)
		p.EstCost = p.Root.EstCost
		p.EstRows = p.Root.EstRows
	}
	p.PlanHash = w.hash
}

// collectIndexes appends to IndexesUsed every index n's subtree reads or
// maintains, once each (case-insensitively), in tree order.
func (p *Plan) collectIndexes(n *Node) {
	p.use(n.Index)
	for _, m := range n.MaintIndexes {
		p.use(m)
	}
	for _, c := range n.Children {
		p.collectIndexes(c)
	}
}

func (p *Plan) use(index string) {
	if index != "" && !slices.ContainsFunc(p.IndexesUsed, func(u string) bool { return strings.EqualFold(u, index) }) {
		p.IndexesUsed = append(p.IndexesUsed, index)
	}
}
