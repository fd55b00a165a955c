package kernel

import (
	"hash/maphash"
	"math/bits"
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
// A hit takes no lock and writes no cache line another core uses: it
// loads the subregion's published index, reads the key's decision word,
// and adds to the hit stripe of the caller's PID. Writers, inserts and
// invalidations, serialize on their subregion's mutex, so a setgoal
// invalidation stalls only the writers of one subregion and no reader.
type DecisionCache struct {
	regions []*dcRegion
	enabled atomic.Bool
	stats   cachestat.Counters
}

// dcRegion is one subregion. Its index is an open-addressed table of
// cells published through tab: readers probe it without a lock, and a
// cell keeps its key for as long as a table holds it, so a writer changes
// a key's decision with one atomic store to the cell's word. A new key
// fills an empty slot, or a table of twice the slots once 3/4 are taken,
// so a key joins at amortized O(1) cost. epoch counts invalidations;
// insertIf uses it to discard decisions computed against
// since-invalidated goal or proof state.
type dcRegion struct {
	tab   atomic.Pointer[dcTable]
	_     [56]byte   // keeps the readers' line apart from the writers'
	mu    sync.Mutex // serializes writers
	epoch atomic.Uint64
	n     int      // cells in tab; guarded by mu
	_     [40]byte // rounds the region to two whole cache lines
}

// dcTable is a region's index: a power-of-two slot array probed linearly
// from a key's hash. Slots only ever go from nil to a cell, so a probe
// that reaches nil has seen every cell with that hash; an invalidated key
// keeps its cell with the valid bit clear.
type dcTable struct {
	slots []atomic.Pointer[dcCell]
}

// dcEmpty is the index of a region with no keys: its one nil slot ends
// every probe, and any insert replaces it with a table of its own.
var dcEmpty = &dcTable{slots: make([]atomic.Pointer[dcCell], 1)}

// dcCell is one key's decision. word packs it: dcValid, dcAllow,
// dcDynamic, and above dcGenShift the credential generation a dynamic
// entry holds under (Kernel.credGen). A dynamic entry was decided on a
// proof that presents labelstore references or certificates, credentials
// a label removal or a revocation can take away. deny is the error a
// cached denial returns: its text depends only on the key, so it is built
// when the key's first denial is stored and shared by every hit after.
type dcCell struct {
	key  dcKey
	hash uint64
	word atomic.Uint64
	deny *Error // set under the region mutex before a denial word is stored
}

const (
	dcValid = 1 << iota
	dcAllow
	dcDynamic
	dcGenShift = iota
	dcGenMask  = ^uint64(0) >> dcGenShift // the generation bits a word keeps
)

// dcKey is the access-control tuple as a composite key: hashing a struct
// of strings allocates nothing, unlike the concatenated string key it
// replaces, which kept one allocation on every warm authorized syscall.
type dcKey struct{ subj, op, obj string }

// dcSeed seeds the index hash.
var dcSeed = maphash.MakeSeed()

// NewDecisionCache creates a cache with the given subregion count (the
// configurable parameter trading invalidation cost against collision rate).
func NewDecisionCache(regions int) *DecisionCache {
	if regions < 1 {
		regions = 1
	}
	c := &DecisionCache{regions: make([]*dcRegion, regions)}
	for i := range c.regions {
		c.regions[i] = &dcRegion{}
		c.regions[i].tab.Store(dcEmpty)
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

// locate is region plus the tuple's index hash. Every key of a region
// shares regionHash modulo the region count, so the index hash mixes all
// of regionHash's bits in beside the subject's own hash.
func (c *DecisionCache) locate(subj, op, obj string) (*dcRegion, uint64) {
	rh := regionHash(op, obj)
	h := maphash.String(dcSeed, subj) ^ bits.RotateLeft64(uint64(rh)*0x9e3779b97f4a7c15, 32)
	return c.regions[rh%uint32(len(c.regions))], h
}

// find returns key's cell, or nil if the table does not hold the key.
func (t *dcTable) find(key dcKey, h uint64) *dcCell {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		cell := t.slots[i].Load()
		if cell == nil || cell.hash == h && cell.key == key {
			return cell
		}
	}
}

// add puts a new cell into the first free slot of its probe sequence.
func (t *dcTable) add(cell *dcCell) {
	mask := uint64(len(t.slots) - 1)
	i := cell.hash & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(cell)
}

// Lookup returns the cached decision for the tuple, if present. It never
// returns a dynamic entry: only the kernel that stored one can tell
// whether its credential generation is still current.
func (c *DecisionCache) Lookup(subj, op, obj string) (allow, ok bool) {
	deny, ok := c.lookup(subj, op, obj, nil, 0)
	return ok && deny == nil, ok
}

// lookup is Lookup for k's authorize, which passes the caller's PID as
// stripe, the hit counter word it adds to. A hit returns nil for an allow
// and the key's shared error for a denial. A dynamic entry hits only
// while k's credential generation still reads the one it was stored with,
// which costs two atomic loads and nothing on an inline-credential entry.
// A stale dynamic entry counts as a miss, and the decision made on that
// miss replaces it.
//
//nexus:noalloc
func (c *DecisionCache) lookup(subj, op, obj string, k *Kernel, stripe uint64) (deny *Error, ok bool) {
	var w uint64
	var cell *dcCell
	if c.enabled.Load() {
		r, h := c.locate(subj, op, obj)
		if cell = r.tab.Load().find(dcKey{subj, op, obj}, h); cell != nil {
			w = cell.word.Load()
		}
	}
	if w&dcValid == 0 || w&dcDynamic != 0 && (k == nil || w>>dcGenShift != k.credGen()&dcGenMask) {
		c.stats.Lookup(stripe, false)
		return nil, false
	}
	c.stats.Lookup(stripe, true)
	if w&dcAllow != 0 {
		return nil, true
	}
	return cell.deny, true
}

// Insert records a cacheable decision unconditionally. It is meant for
// benchmarks and tests that drive the cache directly; decision paths that
// read goal or proof state before deciding must use Epoch + InsertIf, or a
// concurrent invalidation can be lost and the stale decision cached.
func (c *DecisionCache) Insert(subj, op, obj string, allow bool) {
	c.store(subj, op, obj, decisionWord(allow, false, 0), nil)
}

// Epoch returns the invalidation epoch of the subregion holding (op, obj).
// Read it before consulting goal and proof state; pass it to InsertIf so a
// decision computed against state invalidated mid-flight is discarded
// instead of cached stale.
func (c *DecisionCache) Epoch(op, obj string) uint64 {
	return c.region(op, obj).epoch.Load()
}

// InsertIf records a cacheable decision only if the subregion has not been
// invalidated since the caller observed epoch.
func (c *DecisionCache) InsertIf(subj, op, obj string, allow bool, epoch uint64) {
	c.store(subj, op, obj, decisionWord(allow, false, 0), &epoch)
}

// insertIf is InsertIf for a decision the kernel may have stamped with a
// credential generation (decisionWord).
func (c *DecisionCache) insertIf(subj, op, obj string, w, epoch uint64) {
	c.store(subj, op, obj, w, &epoch)
}

// decisionWord packs a valid decision into a cell word; gen matters only
// for a dynamic one.
func decisionWord(allow, dynamic bool, gen uint64) uint64 {
	w := uint64(dcValid) | gen<<dcGenShift
	if allow {
		w |= dcAllow
	}
	if dynamic {
		w |= dcDynamic
	}
	return w
}

// store writes decision word w for the tuple, unless epoch is given and
// the subregion has been invalidated since. A key the index holds is one
// atomic store; a new key allocates its cell, and its denial error if w
// denies, and joins the index.
func (c *DecisionCache) store(subj, op, obj string, w uint64, epoch *uint64) {
	if !c.enabled.Load() {
		return
	}
	r, h := c.locate(subj, op, obj)
	key := dcKey{subj, op, obj}
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch != nil && r.epoch.Load() != *epoch {
		return
	}
	t := r.tab.Load()
	cell := t.find(key, h)
	fresh := cell == nil
	if fresh {
		cell = &dcCell{key: key, hash: h}
	}
	if w&dcAllow == 0 && cell.deny == nil {
		cell.deny = abiErr(EACCES, op, "cached denial for "+subj+" on "+obj)
	}
	cell.word.Store(w)
	if !fresh {
		return
	}
	if r.n++; r.n*4 > len(t.slots)*3 {
		// Grow: the new table holds the same cells, so a reader still
		// probing the old one sees every word written after the swap.
		nt := &dcTable{slots: make([]atomic.Pointer[dcCell], max(8, 2*len(t.slots)))}
		for i := range t.slots {
			if old := t.slots[i].Load(); old != nil {
				nt.add(old)
			}
		}
		nt.add(cell)
		r.tab.Store(nt)
		return
	}
	t.add(cell)
}

// InvalidateEntry clears the single entry for a proof update.
func (c *DecisionCache) InvalidateEntry(subj, op, obj string) {
	r, h := c.locate(subj, op, obj)
	r.mu.Lock()
	present := false
	if cell := r.tab.Load().find(dcKey{subj, op, obj}, h); cell != nil {
		present = cell.word.Swap(0)&dcValid != 0
	}
	r.epoch.Add(1)
	r.mu.Unlock()
	if present {
		c.stats.Evicted(1)
	}
}

// InvalidateRegion clears the subregion holding all subjects' entries for
// (op, obj) — the setgoal invalidation path — by publishing an empty
// index. A reader that loaded the old index before the swap may still
// read it, as it could have read before the invalidation; none that
// starts after InvalidateRegion returns can.
func (c *DecisionCache) InvalidateRegion(op, obj string) {
	r := c.region(op, obj)
	r.mu.Lock()
	n := r.reset()
	r.mu.Unlock()
	c.stats.Evicted(uint64(n))
}

// reset empties the region and advances its epoch, returning the number
// of valid entries dropped. Caller holds r.mu.
func (r *dcRegion) reset() int {
	n := r.valid()
	r.tab.Store(dcEmpty)
	r.n = 0
	r.epoch.Add(1)
	return n
}

// valid counts the region's valid entries.
func (r *dcRegion) valid() int {
	n := 0
	t := r.tab.Load()
	for i := range t.slots {
		if cell := t.slots[i].Load(); cell != nil && cell.word.Load()&dcValid != 0 {
			n++
		}
	}
	return n
}

// Flush clears everything and resets the statistics. Not linearizable with
// respect to concurrent lookups; meant for quiescent reconfiguration.
func (c *DecisionCache) Flush() {
	for _, r := range c.regions {
		r.mu.Lock()
		r.reset()
		r.mu.Unlock()
	}
	c.stats.Reset()
}

// Len reports the total number of cached decisions.
func (c *DecisionCache) Len() int {
	n := 0
	for _, r := range c.regions {
		n += r.valid()
	}
	return n
}

// RegionLen reports the number of entries in the subregion holding (op,
// obj); tests use it to observe invalidation granularity.
func (c *DecisionCache) RegionLen(op, obj string) int {
	return c.region(op, obj).valid()
}

// Stats reports hit and miss counts since the last Flush.
func (c *DecisionCache) Stats() (hits, misses uint64) {
	s := c.stats.Snapshot()
	return s.Hits, s.Misses
}

// StatsSnapshot reports full decision-cache statistics in the shape shared
// with the guard proof cache; invalidated entries count as evictions.
func (c *DecisionCache) StatsSnapshot() cachestat.Stats { return c.stats.Snapshot() }
