// Package btree implements an in-memory B+ tree over composite keys. It is
// the physical structure behind clustered and non-clustered indexes in the
// engine. Leaf nodes are chained for range scans; the tree reports its
// height and leaf count so the executor can charge realistic logical-IO
// costs for seeks and scans.
package btree

import (
	"fmt"
	"slices"

	"autoindex/internal/value"
)

// DefaultOrder is the fan-out used when none is specified. It is low enough
// that realistic tables have height 3–4, exercising multi-level seek costs.
const DefaultOrder = 64

// Entry is a leaf record: a composite key and its payload row (for a
// clustered index the full row; for a non-clustered index the included
// columns plus row locator).
type Entry struct {
	Key     value.Key
	Payload value.Row
}

// Tree is a B+ tree. Keys must be unique; callers implementing non-unique
// indexes append a unique row locator as the final key component.
type Tree struct {
	order int
	root  *node
	size  int
	// leaves counts leaf nodes. Only New, splitLeaf and Load create a
	// leaf and deletes never merge, so a counter stays exact.
	leaves int
}

type node struct {
	leaf     bool
	keys     []value.Key
	payloads []value.Row // leaf only, parallel to keys
	children []*node     // interior only, len(keys)+1
	next     *node       // leaf chain
}

// New returns an empty tree with the given order (max children per interior
// node). Orders below 4 are raised to 4.
func New(order int) *Tree {
	if order < 4 {
		order = 4
	}
	return &Tree{order: order, root: &node{leaf: true}, leaves: 1}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (1 for a lone leaf).
func (t *Tree) Height() int {
	h := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// LeafCount returns the number of leaf nodes, the scan-cost unit.
func (t *Tree) LeafCount() int { return t.leaves }

// maxKeys is the maximum keys a node may hold.
func (t *Tree) maxKeys() int { return t.order - 1 }

// Insert adds or replaces the entry for key. It reports whether a new key
// was inserted (false means an existing payload was replaced).
func (t *Tree) Insert(key value.Key, payload value.Row) bool {
	newChild, newKey, added := t.insert(t.root, key, payload)
	if newChild != nil {
		root := &node{
			keys:     []value.Key{newKey},
			children: []*node{t.root, newChild},
		}
		t.root = root
	}
	if added {
		t.size++
	}
	return added
}

// insert descends into n; on split it returns the new right sibling and its
// separator key.
func (t *Tree) insert(n *node, key value.Key, payload value.Row) (*node, value.Key, bool) {
	if n.leaf {
		i, found := n.search(key)
		if found {
			n.payloads[i] = payload
			return nil, nil, false
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.payloads = append(n.payloads, nil)
		copy(n.payloads[i+1:], n.payloads[i:])
		n.payloads[i] = payload
		if len(n.keys) > t.maxKeys() {
			right, sep := t.splitLeaf(n)
			return right, sep, true
		}
		return nil, nil, true
	}
	i, _ := n.search(key)
	child := n.children[i]
	newChild, sep, added := t.insert(child, key, payload)
	if newChild == nil {
		return nil, nil, added
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = sep
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = newChild
	if len(n.keys) > t.maxKeys() {
		right, s := t.splitInterior(n)
		return right, s, added
	}
	return nil, nil, added
}

func (t *Tree) splitLeaf(n *node) (*node, value.Key) {
	mid := len(n.keys) / 2
	right := &node{
		leaf:     true,
		keys:     append([]value.Key(nil), n.keys[mid:]...),
		payloads: append([]value.Row(nil), n.payloads[mid:]...),
		next:     n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.payloads = n.payloads[:mid:mid]
	n.next = right
	t.leaves++
	return right, right.keys[0]
}

func (t *Tree) splitInterior(n *node) (*node, value.Key) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]value.Key(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return right, sep
}

// search returns the position of key within the node. For leaves it is the
// index where key is or should be inserted, with found reporting an exact
// match. For interior nodes it is the child index to descend into.
func (n *node) search(key value.Key) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c := value.CompareKeys(n.keys[mid], key)
		switch {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			if n.leaf {
				return mid, true
			}
			return mid + 1, true
		}
	}
	return lo, false
}

// Get returns the payload for key.
func (t *Tree) Get(key value.Key) (value.Row, bool) {
	n := t.root
	for !n.leaf {
		i, _ := n.search(key)
		n = n.children[i]
	}
	i, found := n.search(key)
	if !found {
		return nil, false
	}
	return n.payloads[i], true
}

// Delete removes key, reporting whether it was present. Nodes are allowed
// to underflow (no rebalancing); deletes in the engine are rare relative to
// scans, and scans tolerate sparse leaves. Empty leaves are skipped by
// iterators.
func (t *Tree) Delete(key value.Key) bool {
	n := t.root
	for !n.leaf {
		i, _ := n.search(key)
		n = n.children[i]
	}
	i, found := n.search(key)
	if !found {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.payloads = append(n.payloads[:i], n.payloads[i+1:]...)
	t.size--
	return true
}

// Iterator walks leaf entries in key order.
type Iterator struct {
	n   *node
	idx int
	// hi is the exclusive/inclusive upper bound; nil means unbounded.
	hi     value.Key
	hiIncl bool
}

// Seek returns an iterator positioned at the first entry >= lo (or > lo if
// loIncl is false). Pass nil lo to start at the beginning. hi bounds the
// scan; nil means scan to the end.
func (t *Tree) Seek(lo value.Key, loIncl bool, hi value.Key, hiIncl bool) *Iterator {
	n := t.root
	if lo == nil {
		for !n.leaf {
			n = n.children[0]
		}
		return &Iterator{n: n, idx: 0, hi: hi, hiIncl: hiIncl}
	}
	for !n.leaf {
		i, _ := n.search(lo)
		n = n.children[i]
	}
	i, found := n.search(lo)
	if found && !loIncl {
		i++
	}
	it := &Iterator{n: n, idx: i, hi: hi, hiIncl: hiIncl}
	// When !loIncl and duplicates of the prefix exist, advance past all
	// entries whose full key still compares <= lo is unnecessary: keys are
	// unique, so a single step suffices.
	return it
}

// Next returns the next entry and false when the scan is exhausted.
func (it *Iterator) Next() (Entry, bool) {
	for it.n != nil {
		if it.idx >= len(it.n.keys) {
			it.n = it.n.next
			it.idx = 0
			continue
		}
		k := it.n.keys[it.idx]
		if it.hi != nil {
			c := value.CompareKeys(k, it.hi)
			if c > 0 || (c == 0 && !it.hiIncl) {
				it.n = nil
				return Entry{}, false
			}
		}
		e := Entry{Key: k, Payload: it.n.payloads[it.idx]}
		it.idx++
		return e, true
	}
	return Entry{}, false
}

// Ascend calls fn for every entry in key order, stopping early if fn
// returns false.
func (t *Tree) Ascend(fn func(Entry) bool) {
	it := t.Seek(nil, true, nil, true)
	for {
		e, ok := it.Next()
		if !ok {
			return
		}
		if !fn(e) {
			return
		}
	}
}

// CheckInvariants verifies structural invariants: sorted keys within nodes,
// separator correctness, leaf chain order, and size and leaf-count
// agreement. It is used by property-based tests.
func (t *Tree) CheckInvariants() error {
	count, leaves := 0, 0
	var prev value.Key
	var walk func(n *node, lo, hi value.Key) error
	walk = func(n *node, lo, hi value.Key) error {
		for i := 1; i < len(n.keys); i++ {
			if value.CompareKeys(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree: keys out of order in node")
			}
		}
		if n.leaf {
			leaves++
			if len(n.keys) != len(n.payloads) {
				return fmt.Errorf("btree: leaf keys/payloads mismatch")
			}
			for _, k := range n.keys {
				if lo != nil && value.CompareKeys(k, lo) < 0 {
					return fmt.Errorf("btree: leaf key below subtree bound")
				}
				if hi != nil && value.CompareKeys(k, hi) >= 0 {
					return fmt.Errorf("btree: leaf key above subtree bound")
				}
				if prev != nil && value.CompareKeys(prev, k) >= 0 {
					return fmt.Errorf("btree: leaf chain out of order")
				}
				prev = k
				count++
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: interior children/keys mismatch")
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries found", t.size, count)
	}
	if leaves != t.leaves {
		return fmt.Errorf("btree: leaf count %d but %d leaves found", t.leaves, leaves)
	}
	return nil
}

// DumpedNode is the serializable form of one node, produced by Dump and
// consumed by Load. Children are indices into the dumped node list.
type DumpedNode struct {
	Leaf     bool
	Keys     []value.Key
	Payloads []value.Row // leaf only, parallel to Keys
	Children []int       // interior only, len(Keys)+1
}

// Dump flattens the tree into its exact structural form, nodes in
// preorder with the root at index 0. Because deletes never rebalance,
// the shape of a tree is history-dependent — Height and LeafCount feed
// optimizer cost estimates — so hibernation must round-trip structure
// exactly, not just the entry set. Load(Dump()) reproduces the tree
// node for node.
func (t *Tree) Dump() []DumpedNode {
	var out []DumpedNode
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(out)
		out = append(out, DumpedNode{Leaf: n.leaf, Keys: n.keys, Payloads: n.payloads})
		if !n.leaf {
			children := make([]int, len(n.children))
			for i, c := range n.children {
				children[i] = walk(c)
			}
			out[idx].Children = children
		}
		return idx
	}
	walk(t.root)
	return out
}

// Load reconstructs a tree from Dump output, validating the structural
// shape (index ranges, single-use children, arity) and relinking the
// leaf chain in left-to-right order. It does not verify key ordering;
// callers decoding untrusted bytes should follow with CheckInvariants.
func Load(order int, nodes []DumpedNode) (*Tree, error) {
	if order < 4 {
		order = 4
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("btree: empty dump")
	}
	built := make([]*node, len(nodes))
	used := make([]bool, len(nodes))
	for i, d := range nodes {
		if d.Leaf {
			if len(d.Payloads) != len(d.Keys) || len(d.Children) != 0 {
				return nil, fmt.Errorf("btree: malformed leaf node %d", i)
			}
		} else {
			if len(d.Children) != len(d.Keys)+1 || len(d.Payloads) != 0 {
				return nil, fmt.Errorf("btree: malformed interior node %d", i)
			}
		}
		built[i] = &node{leaf: d.Leaf, keys: d.Keys, payloads: d.Payloads}
	}
	size, leaves := 0, 0
	var prevLeaf *node
	var link func(i int) (*node, error)
	link = func(i int) (*node, error) {
		if i < 0 || i >= len(nodes) || used[i] {
			return nil, fmt.Errorf("btree: bad child index %d", i)
		}
		used[i] = true
		n := built[i]
		if n.leaf {
			size += len(n.keys)
			leaves++
			if prevLeaf != nil {
				prevLeaf.next = n
			}
			prevLeaf = n
			return n, nil
		}
		n.children = make([]*node, len(nodes[i].Children))
		for j, c := range nodes[i].Children {
			child, err := link(c)
			if err != nil {
				return nil, err
			}
			n.children[j] = child
		}
		return n, nil
	}
	root, err := link(0)
	if err != nil {
		return nil, err
	}
	for i, u := range used {
		if !u {
			return nil, fmt.Errorf("btree: orphan node %d", i)
		}
	}
	return &Tree{order: order, root: root, size: size, leaves: leaves}, nil
}

// Clone returns a copy of t node for node. Insert and Delete write a
// node's arrays in place, so the copy's nodes and arrays are its own; the
// keys and payload rows, which no caller writes in place, are shared.
func (t *Tree) Clone() *Tree {
	var prevLeaf *node
	var walk func(n *node) *node
	walk = func(n *node) *node {
		c := &node{leaf: n.leaf, keys: slices.Clone(n.keys), payloads: slices.Clone(n.payloads)}
		if n.leaf {
			if prevLeaf != nil {
				prevLeaf.next = c
			}
			prevLeaf = c
		}
		c.children = slices.Clone(n.children)
		for i, child := range c.children {
			c.children[i] = walk(child)
		}
		return c
	}
	return &Tree{order: t.order, root: walk(t.root), size: t.size, leaves: t.leaves}
}

// Order returns the tree's fan-out, for serialization.
func (t *Tree) Order() int { return t.order }
