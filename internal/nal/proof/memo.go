package proof

import (
	"sync"
	"sync/atomic"

	"repro/internal/cachestat"
	"repro/internal/nal"
)

// The subproof memo table records rule applications that have been checked
// and are *environment-independent*: their validity is a pure function of
// the hash-consed identities involved, not of the credential list, trust
// roots, or any live authority. An entry keyed by
//
//	(rule, premise count, subproof count, premise IDs, conclusion ID)
//
// asserts "a valid, self-contained application of rule deriving this
// conclusion from these premises has been checked in this process". Because
// FormulaIDs are exact identities (hashcons.go), the key admits no
// collisions, and because entries are written only after a successful check
// of a step whose nested frames contain no label, authority, or
// trust-root-dependent handoff steps, a hit is valid for every request and
// every process sharing the credential chain — the cross-request "lemma"
// reuse of §2.9 lifted from one guard's cache to the whole proof pipeline.
//
// For steps carrying subproofs (imp-i, or-e) the memo behaves as a lemma
// database: a hit certifies the conclusion's derivability and skips the
// nested frames entirely, even if the presented subproof differs from the
// one originally checked. This preserves the guard-relevant property (the
// conclusion has a checked, self-contained derivation) while not re-walking
// proof text; callers that need strict proof-object validation (the
// differential fuzzer) disable the memo with SetMemoEnabled.
//
// Invalidation: never needed for correctness. Keys are pure structural
// identities — changing a goal changes the goal's ID, revoking a credential
// changes what resolveCreds returns, and label/authority/handoff steps are
// re-checked on every evaluation — so entries can only be evicted for
// memory, never staleness. Shards are cleared wholesale when full.

type memoKey struct {
	rule     Rule
	np, nsub uint8
	p0, p1   nal.FormulaID
	f        nal.FormulaID
}

type memoVal struct {
	// extra is the number of nested subproof steps covered by the entry,
	// added to Result.Steps on a hit so step accounting matches a full walk.
	extra int32
}

const (
	memoShardCount = 64
	memoShardCap   = 4096
)

type memoShard struct {
	mu sync.RWMutex
	m  map[memoKey]memoVal
}

var (
	memoTab     [memoShardCount]memoShard
	memoStats   cachestat.Counters
	memoEnabled atomic.Bool
)

func init() { memoEnabled.Store(true) }

// SetMemoEnabled toggles the subproof memo (default on). The differential
// fuzzer turns it off to compare the compiled checker against the
// structural checker step for step.
func SetMemoEnabled(on bool) { memoEnabled.Store(on) }

func (k *memoKey) shard() *memoShard {
	h := uint32(k.f)*0x9e3779b1 ^ uint32(k.p0)*0x85ebca6b ^ uint32(k.p1)
	return &memoTab[h&(memoShardCount-1)]
}

func memoLookup(k *memoKey) (memoVal, bool) {
	if !memoEnabled.Load() {
		return memoVal{}, false
	}
	sh := k.shard()
	sh.mu.RLock()
	v, ok := sh.m[*k]
	sh.mu.RUnlock()
	memoStats.Lookup(0, ok) // probes come from guard misses: one hit stripe
	return v, ok
}

// memoInsert runs only on a memo miss (and the rare shard reset): the
// allocation is amortized across every later hit.
//
//nexus:alloc-ok
func memoInsert(k *memoKey, v memoVal) {
	if !memoEnabled.Load() {
		return
	}
	sh := k.shard()
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = map[memoKey]memoVal{}
	} else if len(sh.m) >= memoShardCap {
		// Entries are pure, so clearing is always safe; wholesale reset
		// beats per-entry eviction bookkeeping at this granularity.
		memoStats.Evicted(uint64(len(sh.m)))
		sh.m = map[memoKey]memoVal{}
	}
	sh.m[*k] = v
	sh.mu.Unlock()
}

// MemoStats reports subproof-memo lookups, hits, misses, and evictions in
// the shape shared with the guard and decision caches.
func MemoStats() cachestat.Stats { return memoStats.Snapshot() }

// MemoReset clears the memo table and its statistics (tests, benchmarks).
func MemoReset() {
	for i := range memoTab {
		sh := &memoTab[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
	memoStats.Reset()
}

// MemoLen reports the number of memoized rule applications.
func MemoLen() int {
	n := 0
	for i := range memoTab {
		sh := &memoTab[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}
