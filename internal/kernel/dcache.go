package kernel

import (
	"sync"
	"sync/atomic"

	"repro/internal/cachestat"
)

// DecisionCache stores previously observed guard decisions keyed by the
// access-control tuple (subject, operation, object), §2.8. The hash function
// maps all entries with the same (operation, object) into the same
// subregion, so a setgoal invalidation clears one subregion instead of the
// whole cache; a proof update clears a single entry. A decision on a proof
// that presents labelstore references or certificates is stamped with the
// kernel's credential generation, which every label removal and every
// revocation advances, so no per-entry dependency list is kept and a hit
// on such an entry compares one number.
//
// Each subregion carries its own lock, so lookups and inserts for different
// resources proceed in parallel and a setgoal invalidation stalls only the
// one subregion it clears.
type DecisionCache struct {
	regions []*dcRegion
	enabled atomic.Bool
	stats   cachestat.Counters
}

// dcRegion is one independently locked subregion. epoch counts
// invalidations of the subregion; InsertIf uses it to discard decisions
// that were computed against since-invalidated goal or proof state.
type dcRegion struct {
	mu    sync.RWMutex
	m     map[dcKey]dcEntry
	epoch uint64
}

// dcEntry is one cached decision. A dynamic entry was decided on a proof
// that presents labelstore references or certificates, credentials a
// label removal or a revocation can take away: it holds only while the
// kernel's credential generation (Kernel.credGen) still reads gen.
type dcEntry struct {
	allow   bool
	dynamic bool
	gen     uint64
}

// dcKey is the access-control tuple as a composite map key: hashing a
// struct of strings allocates nothing, unlike the concatenated string key
// it replaces, which kept one allocation on every warm authorized syscall.
type dcKey struct{ subj, op, obj string }

// NewDecisionCache creates a cache with the given subregion count (the
// configurable parameter trading invalidation cost against collision rate).
func NewDecisionCache(regions int) *DecisionCache {
	if regions < 1 {
		regions = 1
	}
	c := &DecisionCache{regions: make([]*dcRegion, regions)}
	for i := range c.regions {
		c.regions[i] = &dcRegion{m: map[dcKey]dcEntry{}}
	}
	c.enabled.Store(true)
	return c
}

// Disable turns the cache off; lookups always miss.
func (c *DecisionCache) Disable() { c.enabled.Store(false) }

// Enable turns the cache back on.
func (c *DecisionCache) Enable() { c.enabled.Store(true) }

// regionHash is FNV-1a over op, a 0 separator, then obj — computed inline
// so the warm lookup path stays allocation-free in the static view too
// (hash values are identical to the fnv.New32a formulation it replaces).
func regionHash(op, obj string) uint32 {
	const prime32 = 16777619
	h := uint32(2166136261)
	for i := 0; i < len(op); i++ {
		h = (h ^ uint32(op[i])) * prime32
	}
	h = (h ^ 0) * prime32
	for i := 0; i < len(obj); i++ {
		h = (h ^ uint32(obj[i])) * prime32
	}
	return h
}

// region selects the subregion holding all entries for (op, obj).
func (c *DecisionCache) region(op, obj string) *dcRegion {
	return c.regions[regionHash(op, obj)%uint32(len(c.regions))]
}

// Lookup returns the cached decision for the tuple, if present. It never
// returns a dynamic entry: only the kernel that stored one can tell
// whether its credential generation is still current.
func (c *DecisionCache) Lookup(subj, op, obj string) (allow, ok bool) {
	return c.lookup(subj, op, obj, nil)
}

// lookup is Lookup for k's authorize: a dynamic entry hits only while k's
// credential generation still reads the one it was stored with, which
// costs two atomic loads and nothing on an inline-credential entry. A
// stale dynamic entry counts as a miss, and the decision made on that
// miss replaces it.
func (c *DecisionCache) lookup(subj, op, obj string, k *Kernel) (allow, ok bool) {
	if !c.enabled.Load() {
		c.stats.Lookup(false)
		return false, false
	}
	r := c.region(op, obj)
	r.mu.RLock()
	e, ok := r.m[dcKey{subj, op, obj}]
	r.mu.RUnlock()
	if !ok || e.dynamic && (k == nil || e.gen != k.credGen()) {
		c.stats.Lookup(false)
		return false, false
	}
	c.stats.Lookup(true)
	return e.allow, true
}

// Insert records a cacheable decision unconditionally. It is meant for
// benchmarks and tests that drive the cache directly; decision paths that
// read goal or proof state before deciding must use Epoch + InsertIf, or a
// concurrent invalidation can be lost and the stale decision cached.
func (c *DecisionCache) Insert(subj, op, obj string, allow bool) {
	if !c.enabled.Load() {
		return
	}
	r := c.region(op, obj)
	r.mu.Lock()
	r.m[dcKey{subj, op, obj}] = dcEntry{allow: allow}
	r.mu.Unlock()
}

// Epoch returns the invalidation epoch of the subregion holding (op, obj).
// Read it before consulting goal and proof state; pass it to InsertIf so a
// decision computed against state invalidated mid-flight is discarded
// instead of cached stale.
func (c *DecisionCache) Epoch(op, obj string) uint64 {
	r := c.region(op, obj)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.epoch
}

// InsertIf records a cacheable decision only if the subregion has not been
// invalidated since the caller observed epoch.
func (c *DecisionCache) InsertIf(subj, op, obj string, allow bool, epoch uint64) {
	c.insertIf(subj, op, obj, dcEntry{allow: allow}, epoch)
}

// insertIf is InsertIf for an entry the kernel may have stamped with a
// credential generation.
func (c *DecisionCache) insertIf(subj, op, obj string, e dcEntry, epoch uint64) {
	if !c.enabled.Load() {
		return
	}
	r := c.region(op, obj)
	r.mu.Lock()
	if r.epoch == epoch {
		r.m[dcKey{subj, op, obj}] = e
	}
	r.mu.Unlock()
}

// InvalidateEntry clears the single entry for a proof update.
func (c *DecisionCache) InvalidateEntry(subj, op, obj string) {
	r := c.region(op, obj)
	k := dcKey{subj, op, obj}
	r.mu.Lock()
	_, present := r.m[k]
	delete(r.m, k)
	r.epoch++
	r.mu.Unlock()
	if present {
		c.stats.Evicted(1)
	}
}

// InvalidateRegion clears the subregion holding all subjects' entries for
// (op, obj) — the setgoal invalidation path. Only that one subregion is
// locked; lookups against other subregions are unaffected.
func (c *DecisionCache) InvalidateRegion(op, obj string) {
	r := c.region(op, obj)
	r.mu.Lock()
	n := len(r.m)
	r.m = map[dcKey]dcEntry{}
	r.epoch++
	r.mu.Unlock()
	c.stats.Evicted(uint64(n))
}

// Flush clears everything and resets the statistics. Not linearizable with
// respect to concurrent lookups; meant for quiescent reconfiguration.
func (c *DecisionCache) Flush() {
	for _, r := range c.regions {
		r.mu.Lock()
		r.m = map[dcKey]dcEntry{}
		r.epoch++
		r.mu.Unlock()
	}
	c.stats.Reset()
}

// Len reports the total number of cached decisions.
func (c *DecisionCache) Len() int {
	n := 0
	for _, r := range c.regions {
		r.mu.RLock()
		n += len(r.m)
		r.mu.RUnlock()
	}
	return n
}

// RegionLen reports the number of entries in the subregion holding (op,
// obj); tests use it to observe invalidation granularity.
func (c *DecisionCache) RegionLen(op, obj string) int {
	r := c.region(op, obj)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// Stats reports hit and miss counts since the last Flush.
func (c *DecisionCache) Stats() (hits, misses uint64) {
	s := c.stats.Snapshot()
	return s.Hits, s.Misses
}

// StatsSnapshot reports full decision-cache statistics in the shape shared
// with the guard proof cache; invalidated entries count as evictions.
func (c *DecisionCache) StatsSnapshot() cachestat.Stats { return c.stats.Snapshot() }
