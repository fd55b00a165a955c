package kernel

import (
	"fmt"
	"testing"
)

// distinctRegions returns two (op, obj) pairs that land in different
// subregions of a cache with the given region count.
func distinctRegions(t *testing.T, regions int) (obj1, obj2 string) {
	t.Helper()
	r1 := regionHash("read", "obj0") % uint32(regions)
	for i := 1; i < 1000; i++ {
		obj := fmt.Sprintf("obj%d", i)
		if regionHash("read", obj)%uint32(regions) != r1 {
			return "obj0", obj
		}
	}
	t.Fatal("could not find objects in distinct subregions")
	return "", ""
}

// TestDCacheRegionInvalidationClearsExactlyOneShard verifies the setgoal
// invalidation path touches only the subregion owning (op, obj).
func TestDCacheRegionInvalidationClearsExactlyOneShard(t *testing.T) {
	c := NewDecisionCache(4)
	obj1, obj2 := distinctRegions(t, 4)
	c.Insert("alice", "read", obj1, true)
	c.Insert("bob", "read", obj1, false)
	c.Insert("alice", "read", obj2, true)

	c.InvalidateRegion("read", obj1)

	if n := c.RegionLen("read", obj1); n != 0 {
		t.Errorf("invalidated subregion holds %d entries, want 0", n)
	}
	if allow, ok := c.Lookup("alice", "read", obj2); !ok || !allow {
		t.Error("entry in the other subregion was lost")
	}
	if _, ok := c.Lookup("alice", "read", obj1); ok {
		t.Error("invalidated entry still present")
	}
	if _, ok := c.Lookup("bob", "read", obj1); ok {
		t.Error("co-resident subject survived subregion invalidation")
	}
	if s := c.StatsSnapshot(); s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (both entries of the cleared subregion)", s.Evictions)
	}
}

// TestDCacheEntryInvalidation verifies the setproof path clears exactly one
// subject's entry.
func TestDCacheEntryInvalidation(t *testing.T) {
	c := NewDecisionCache(4)
	c.Insert("alice", "read", "obj", true)
	c.Insert("bob", "read", "obj", true)
	c.InvalidateEntry("alice", "read", "obj")
	if _, ok := c.Lookup("alice", "read", "obj"); ok {
		t.Error("invalidated entry still present")
	}
	if _, ok := c.Lookup("bob", "read", "obj"); !ok {
		t.Error("other subject's entry was lost")
	}
	// Invalidating an absent entry is a no-op with no eviction counted.
	before := c.StatsSnapshot().Evictions
	c.InvalidateEntry("carol", "read", "obj")
	if got := c.StatsSnapshot().Evictions; got != before {
		t.Errorf("phantom eviction counted: %d → %d", before, got)
	}
}

// TestDCacheDisabledAlwaysMisses verifies the disabled cache neither hits
// nor stores, while still counting lookups.
func TestDCacheDisabledAlwaysMisses(t *testing.T) {
	c := NewDecisionCache(4)
	c.Insert("alice", "read", "obj", true)
	c.Disable()
	if _, ok := c.Lookup("alice", "read", "obj"); ok {
		t.Error("disabled cache returned a hit")
	}
	c.Insert("bob", "read", "obj", true)
	c.Enable()
	if _, ok := c.Lookup("bob", "read", "obj"); ok {
		t.Error("insert while disabled must not store")
	}
	if allow, ok := c.Lookup("alice", "read", "obj"); !ok || !allow {
		t.Error("re-enabled cache lost its pre-existing entry")
	}
	s := c.StatsSnapshot()
	if s.Lookups != s.Hits+s.Misses {
		t.Errorf("stats inconsistent: %+v", s)
	}
	if s.Lookups != 3 || s.Hits != 1 {
		t.Errorf("lookups=%d hits=%d, want 3 lookups with exactly 1 hit", s.Lookups, s.Hits)
	}
}

// TestDCacheInsertIfDropsStaleEpoch verifies the invalidation-epoch guard:
// a decision computed before an invalidation must not be cached after it.
func TestDCacheInsertIfDropsStaleEpoch(t *testing.T) {
	c := NewDecisionCache(4)
	e := c.Epoch("read", "obj")
	c.InvalidateRegion("read", "obj") // setgoal landed mid-decision
	c.InsertIf("alice", "read", "obj", true, e)
	if _, ok := c.Lookup("alice", "read", "obj"); ok {
		t.Error("stale decision was cached past a region invalidation")
	}

	e = c.Epoch("read", "obj")
	c.InvalidateEntry("alice", "read", "obj") // setproof also bumps the epoch
	c.InsertIf("alice", "read", "obj", true, e)
	if _, ok := c.Lookup("alice", "read", "obj"); ok {
		t.Error("stale decision was cached past an entry invalidation")
	}

	e = c.Epoch("read", "obj")
	c.InsertIf("alice", "read", "obj", true, e)
	if allow, ok := c.Lookup("alice", "read", "obj"); !ok || !allow {
		t.Error("current-epoch insert was dropped")
	}
}

// TestDCacheFlushResetsEverything verifies Flush clears entries and stats.
func TestDCacheFlushResetsEverything(t *testing.T) {
	c := NewDecisionCache(4)
	c.Insert("alice", "read", "obj", true)
	c.Lookup("alice", "read", "obj")
	c.Flush()
	if c.Len() != 0 {
		t.Errorf("Len = %d after Flush, want 0", c.Len())
	}
	if s := c.StatsSnapshot(); s.Lookups != 0 || s.Hits != 0 || s.Misses != 0 || s.Evictions != 0 {
		t.Errorf("stats not reset by Flush: %+v", s)
	}
}

// TestDCacheDynamicEntryFollowsGeneration verifies a dynamic entry: it
// hits while the kernel's credential generation reads what it was stored
// with, a label removal or a revocation turns its next lookup into a
// counted miss, the decision made on that miss replaces it, and the
// exported Lookup, which knows no generation, never returns it.
func TestDCacheDynamicEntryFollowsGeneration(t *testing.T) {
	k := bootKernel(t)
	p, err := k.CreateProcess(0, []byte("holder"))
	if err != nil {
		t.Fatal(err)
	}
	l, err := p.Labels.Say("ok")
	if err != nil {
		t.Fatal(err)
	}
	c := NewDecisionCache(4)
	insert := func() {
		c.insertIf("alice", "read", "obj", dcEntry{allow: true, dynamic: true, gen: k.credGen()}, c.Epoch("read", "obj"))
	}
	insert()
	if allow, ok := c.lookup("alice", "read", "obj", k); !ok || !allow {
		t.Fatal("dynamic entry missed at its own generation")
	}
	if _, ok := c.Lookup("alice", "read", "obj"); ok {
		t.Error("Lookup returned a dynamic entry it cannot validate")
	}
	for _, change := range []struct {
		name string
		do   func()
	}{
		{"label delete", func() { p.Labels.Delete(l.Handle) }},
		{"revocation", func() { k.CertCache().Revoke("no-such-fingerprint") }},
		{"exit", p.Exit},
	} {
		before := c.StatsSnapshot()
		change.do()
		if _, ok := c.lookup("alice", "read", "obj", k); ok {
			t.Errorf("%s: dynamic entry still hits", change.name)
		}
		if s := c.StatsSnapshot(); s.Misses != before.Misses+1 {
			t.Errorf("%s: stale entry counted %d misses, want 1", change.name, s.Misses-before.Misses)
		}
		insert()
		if _, ok := c.lookup("alice", "read", "obj", k); !ok {
			t.Errorf("%s: re-made decision not cached", change.name)
		}
	}
	// Adding a label leaves the generation alone.
	gen := k.credGen()
	if _, err := p.Labels.Say("more"); err != nil {
		t.Fatal(err)
	}
	if k.credGen() != gen {
		t.Error("adding a label moved the credential generation")
	}
}
