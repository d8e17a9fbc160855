package btree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"autoindex/internal/value"
)

func intKey(vals ...int64) value.Key {
	k := make(value.Key, len(vals))
	for i, v := range vals {
		k[i] = value.NewInt(v)
	}
	return k
}

func TestInsertGetDelete(t *testing.T) {
	tr := New(8)
	for i := int64(0); i < 1000; i++ {
		if !tr.Insert(intKey(i), value.Row{value.NewInt(i * 10)}) {
			t.Fatalf("insert %d reported replace", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("len = %d, want 1000", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		p, ok := tr.Get(intKey(i))
		if !ok || p[0].I != i*10 {
			t.Fatalf("get %d = %v, %v", i, p, ok)
		}
	}
	if _, ok := tr.Get(intKey(5000)); ok {
		t.Fatal("found missing key")
	}
	// Replace.
	if tr.Insert(intKey(7), value.Row{value.NewInt(999)}) {
		t.Fatal("replace reported insert")
	}
	p, _ := tr.Get(intKey(7))
	if p[0].I != 999 {
		t.Fatal("replace did not take")
	}
	// Delete half.
	for i := int64(0); i < 1000; i += 2 {
		if !tr.Delete(intKey(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 500 {
		t.Fatalf("len after delete = %d", tr.Len())
	}
	for i := int64(0); i < 1000; i++ {
		_, ok := tr.Get(intKey(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("get %d = %v, want %v", i, ok, want)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOrderInsertions(t *testing.T) {
	tr := New(16)
	r := rand.New(rand.NewSource(42))
	perm := r.Perm(5000)
	for _, v := range perm {
		tr.Insert(intKey(int64(v)), value.Row{value.NewInt(int64(v))})
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Full ascend must be sorted and complete.
	var got []int64
	tr.Ascend(func(e Entry) bool {
		got = append(got, e.Key[0].I)
		return true
	})
	if len(got) != 5000 {
		t.Fatalf("ascend yielded %d entries", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("ascend out of order")
	}
}

func TestRangeSeek(t *testing.T) {
	tr := New(8)
	for i := int64(0); i < 100; i++ {
		tr.Insert(intKey(i*2), value.Row{value.NewInt(i)})
	}
	// [10, 20] inclusive: keys 10,12,...,20.
	it := tr.Seek(intKey(10), true, intKey(20), true)
	var keys []int64
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		keys = append(keys, e.Key[0].I)
	}
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(keys) != len(want) {
		t.Fatalf("got %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("got %v, want %v", keys, want)
		}
	}
	// Exclusive upper bound.
	it = tr.Seek(intKey(10), true, intKey(20), false)
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("exclusive hi: got %d entries, want 5", n)
	}
	// Seek between keys starts at the next one.
	it = tr.Seek(intKey(11), true, nil, true)
	e, ok := it.Next()
	if !ok || e.Key[0].I != 12 {
		t.Fatalf("seek 11 -> %v", e.Key)
	}
}

func TestCompositeKeysAndPrefixScan(t *testing.T) {
	tr := New(8)
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			tr.Insert(intKey(a, b), value.Row{value.NewInt(a*100 + b)})
		}
	}
	// Seek with a shorter (prefix) key positions at its first extension.
	it := tr.Seek(intKey(5), true, nil, true)
	e, ok := it.Next()
	if !ok || e.Key[0].I != 5 || e.Key[1].I != 0 {
		t.Fatalf("prefix seek got %v", e.Key)
	}
	count := 1
	for {
		e, ok := it.Next()
		if !ok || e.Key[0].I != 5 {
			break
		}
		count++
	}
	if count != 10 {
		t.Fatalf("prefix scan found %d entries, want 10", count)
	}
}

func TestHeightAndLeafCountGrow(t *testing.T) {
	tr := New(4)
	if tr.Height() != 1 {
		t.Fatal("empty tree height != 1")
	}
	for i := int64(0); i < 1000; i++ {
		tr.Insert(intKey(i), nil)
	}
	if tr.Height() < 4 {
		t.Fatalf("height %d too small for order-4 tree with 1000 keys", tr.Height())
	}
	if lc := tr.LeafCount(); lc < 250 {
		t.Fatalf("leaf count %d too small", lc)
	}
}

// chainLeaves counts leaves the way LeafCount used to: along the chain.
func chainLeaves(t *Tree) int {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	count := 0
	for ; n != nil; n = n.next {
		count++
	}
	return count
}

// TestQuickInsertDeleteMatchesMap is a property test: a tree behaves like
// a sorted map under arbitrary interleaved inserts and deletes, and its
// leaf counter equals the walked leaf chain, also after a Dump/Load
// round trip.
func TestQuickInsertDeleteMatchesMap(t *testing.T) {
	f := func(ops []int16, seed int64) bool {
		tr := New(6)
		ref := make(map[int64]int64)
		r := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			k := int64(op % 128)
			if r.Intn(3) == 0 {
				tr.Delete(intKey(k))
				delete(ref, k)
			} else {
				v := r.Int63n(1 << 30)
				tr.Insert(intKey(k), value.Row{value.NewInt(v)})
				ref[k] = v
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			p, ok := tr.Get(intKey(k))
			if !ok || p[0].I != v {
				return false
			}
		}
		loaded, err := Load(tr.Order(), tr.Dump())
		if err != nil || loaded.CheckInvariants() != nil {
			return false
		}
		if tr.LeafCount() != chainLeaves(tr) || loaded.LeafCount() != chainLeaves(tr) {
			return false
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRangeScanMatchesSort checks that range scans return exactly the
// reference keys within bounds, in order.
func TestQuickRangeScanMatchesSort(t *testing.T) {
	f := func(keys []uint16, lo, hi uint16) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New(5)
		ref := make(map[int64]bool)
		for _, k := range keys {
			tr.Insert(intKey(int64(k)), nil)
			ref[int64(k)] = true
		}
		var want []int64
		for k := range ref {
			if k >= int64(lo) && k <= int64(hi) {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		it := tr.Seek(intKey(int64(lo)), true, intKey(int64(hi)), true)
		var got []int64
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, e.Key[0].I)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomWrites applies n random inserts and deletes over keys [0, span):
// about a third are deletes, which leave leaves underfull or empty.
func randomWrites(tr *Tree, r *rand.Rand, n int, span int64) {
	for i := 0; i < n; i++ {
		k := r.Int63n(span)
		if r.Intn(3) == 0 {
			tr.Delete(intKey(k))
		} else {
			tr.Insert(intKey(k), value.Row{value.NewInt(r.Int63n(1 << 30))})
		}
	}
}

// dumpText renders a tree's exact structure as a string, a copy that no
// later write to the tree's arrays can reach.
func dumpText(tr *Tree) string { return fmt.Sprint(tr.Dump()) }

// TestQuickCloneIsPrivateStructureSharedEntries is a property test of
// Clone over random insert and delete histories: the clone is Dump-equal
// to its source, passes CheckInvariants with equal Len, Height and
// LeafCount, shares every key and payload row with the source, and random
// writes to either side leave the other side's Dump unchanged.
func TestQuickCloneIsPrivateStructureSharedEntries(t *testing.T) {
	f := func(history uint16, order uint8, seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := New(4 + int(order%12))
		randomWrites(src, r, int(history%1500), 500)
		clone := src.Clone()
		if !reflect.DeepEqual(clone.Dump(), src.Dump()) || clone.CheckInvariants() != nil ||
			clone.Len() != src.Len() || clone.Height() != src.Height() ||
			clone.LeafCount() != src.LeafCount() || clone.LeafCount() != chainLeaves(clone) {
			return false
		}
		var srcEntries []Entry
		src.Ascend(func(e Entry) bool { srcEntries = append(srcEntries, e); return true })
		i, shared := 0, true
		clone.Ascend(func(e Entry) bool {
			s := srcEntries[i]
			shared = shared && &e.Key[0] == &s.Key[0] && &e.Payload[0] == &s.Payload[0]
			i++
			return shared
		})
		if !shared {
			return false
		}
		for _, side := range [][2]*Tree{{src, clone}, {clone, src}} {
			written, other := side[0], side[1]
			want := dumpText(other)
			randomWrites(written, r, 400, 700)
			if dumpText(other) != want || written.CheckInvariants() != nil || other.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
