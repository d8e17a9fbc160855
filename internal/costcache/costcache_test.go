package costcache

import (
	"fmt"
	"testing"

	"autoindex/internal/metrics"
	"autoindex/internal/optimizer"
)

func k(h uint64, sig string) Key { return Key{QueryHash: h, ConfigSig: sig} }

func TestGetPutRoundTrip(t *testing.T) {
	c := New(8)
	if _, _, ok := c.Get(k(1, "a")); ok {
		t.Fatal("hit on empty cache")
	}
	plan := &optimizer.Plan{}
	c.Put(k(1, "a"), 42.5, plan)
	cost, p, ok := c.Get(k(1, "a"))
	if !ok || cost != 42.5 || p != plan {
		t.Fatalf("got (%v %v %v), want (42.5, plan, true)", cost, p, ok)
	}
	// Same hash, different configuration signature: distinct entry.
	if _, _, ok := c.Get(k(1, "b")); ok {
		t.Fatal("configuration signature not part of the key")
	}
}

func TestLRUEvictionIsAccessOrdered(t *testing.T) {
	c := New(3)
	for i := uint64(0); i < 3; i++ {
		c.Put(k(i, ""), float64(i), nil)
	}
	// Touch key 0 so key 1 becomes the least recently used.
	c.Get(k(0, ""))
	c.Put(k(9, ""), 9, nil)
	if _, _, ok := c.Get(k(1, "")); ok {
		t.Fatal("expected key 1 to be evicted (least recently used)")
	}
	for _, h := range []uint64{0, 2, 9} {
		if _, _, ok := c.Get(k(h, "")); !ok {
			t.Fatalf("key %d unexpectedly evicted", h)
		}
	}
}

func TestEvictionDeterministic(t *testing.T) {
	// Two caches driven through the same access sequence hold the same
	// keys afterwards — eviction never consults map order.
	run := func() string {
		c := New(4)
		for i := 0; i < 32; i++ {
			c.Put(k(uint64(i%7), fmt.Sprintf("s%d", i%3)), float64(i), nil)
			c.Get(k(uint64((i*5)%7), fmt.Sprintf("s%d", (i*2)%3)))
		}
		out := ""
		for h := uint64(0); h < 7; h++ {
			for s := 0; s < 3; s++ {
				if _, _, ok := c.Get(k(h, fmt.Sprintf("s%d", s))); ok {
					out += fmt.Sprintf("%d/s%d;", h, s)
				}
			}
		}
		return out
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("eviction state diverged:\n%s\n%s", a, b)
	}
}

func TestInvalidateDropsEverythingAndCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(8)
	c.SetMetrics(reg)
	c.Put(k(1, "a"), 1, nil)
	c.Put(k(2, "a"), 2, nil)
	if n := c.Invalidate(StatsRefresh); n != 2 {
		t.Fatalf("Invalidate dropped %d, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("cache not empty after invalidation: %d", c.Len())
	}
	// Empty-cache invalidations are not counted as events.
	if n := c.Invalidate(DataChange); n != 0 {
		t.Fatalf("empty invalidation dropped %d", n)
	}
	if v := reg.Counter(DescInvalidationsStats).Value(); v != 1 {
		t.Fatalf("invalidations_stats = %d, want 1", v)
	}
	if v := reg.Counter(DescInvalidationsData).Value(); v != 0 {
		t.Fatalf("invalidations_data = %d, want 0 (cache was empty)", v)
	}
	if v := reg.Counter(DescInvalidatedEntries).Value(); v != 2 {
		t.Fatalf("invalidated_entries = %d, want 2", v)
	}
}

func TestMetricsCountHitsMissesEvictions(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(1)
	c.SetMetrics(reg)
	c.Get(k(1, ""))         // miss
	c.Put(k(1, ""), 1, nil) //
	c.Get(k(1, ""))         // hit
	c.Put(k(2, ""), 2, nil) // evicts 1
	c.Get(k(1, ""))         // miss
	if v := reg.Counter(DescHits).Value(); v != 1 {
		t.Fatalf("hits = %d, want 1", v)
	}
	if v := reg.Counter(DescMisses).Value(); v != 2 {
		t.Fatalf("misses = %d, want 2", v)
	}
	if v := reg.Counter(DescEvictions).Value(); v != 1 {
		t.Fatalf("evictions = %d, want 1", v)
	}
}
