// Package guard implements the Nexus generic guard (§2.6, §2.9): the
// reference monitor that evaluates client-supplied proofs against goal
// formulas on decision-cache misses.
//
// The guard checks — it never constructs — proofs. Credentials arrive
// inline (copied into the request), as labelstore references (fetched from
// the store on each check) or as certificates (resolved through the
// kernel's pre-verification cache). Labels are immutable and indefinitely
// valid (§2.7), so a decision on any of them is cacheable: the kernel
// stamps one that presents references or certificates with its credential
// generation, which label removal and revocation advance. A credential
// that fails to resolve, and any decision that consulted an authority,
// stay uncacheable. Authority steps are re-validated on every evaluation,
// even when the structural part of the proof hits the guard's internal
// proof cache; this is the "lemma" caching of §2.9 that keeps
// dynamic-state checks sound while amortizing proof-checking cost.
//
// The proof cache is lock-striped: entries are spread across shards by the
// hash of their canonical key, so concurrent checks from different subjects
// proceed in parallel and a cache hit takes only a shard read-lock. A key
// is the goal rendered with its variables bound, plus the proof's
// fingerprint and the credentials' hash-cons handles, written into a stack
// buffer, so a hit allocates nothing and never builds the instantiated
// goal.
package guard

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cachestat"
	"repro/internal/cert"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// guardShards is the number of lock stripes in the proof cache. A power of
// two so shard selection is a mask.
const guardShards = 16

// Generic is the default Nexus guard. Create instances with New; a single
// guard may serve many resources. All methods are safe for concurrent use.
type Generic struct {
	k *kernel.Kernel

	embMu    sync.RWMutex
	embedded map[string]func(nal.Formula) bool

	shards   [guardShards]proofShard
	size     atomic.Int64 // total entries across shards
	maxCache atomic.Int64 // 0 or negative disables insertion
	quota    atomic.Int64 // per-owner entry bound (DefaultQuota)

	quotaMu sync.Mutex
	quotas  map[string]int // canonical quota owner → live entries

	stats cachestat.Counters

	// consult is the authority method, bound once so a check's proof.Env
	// carries it without building a closure.
	consult func(channel string, f nal.Formula) bool
}

// proofShard is one stripe of the proof cache: an entry map plus FIFO
// insertion order for eviction scans, under its own lock. entries and order
// are kept exactly in sync.
type proofShard struct {
	mu      sync.RWMutex
	entries map[string]*cachedProof
	order   []string
}

// cachedProof records a structurally validated proof so later checks only
// re-run its authority consultations.
type cachedProof struct {
	owner       string // canonical quota owner (appendOwner), for per-owner eviction
	authorities []proof.Consultation
}

// DefaultCacheSize bounds the proof cache.
const DefaultCacheSize = 1024

// DefaultQuota bounds the entries one quota owner may hold. A process of
// this kernel (<kernel>.ipd.<pid>) is its own owner, so a process that
// overflows its quota evicts its own entries, never its neighbours'
// (performance isolation, §2.9). Any other subject is charged to the root
// of its principal tree: all of one peer's proxies share the peer's NK
// key, because a peer names its processes freely on the wire and could
// otherwise mint owners without bound (exhaustion attacks from
// incessantly spawned principals, §2.9). DefaultCacheSize bounds all
// owners together.
const DefaultQuota = 256

// New creates a guard bound to a kernel (for labelstore fetches and
// external-authority IPC).
func New(k *kernel.Kernel) *Generic {
	g := &Generic{
		k:        k,
		embedded: map[string]func(nal.Formula) bool{},
		quotas:   map[string]int{},
	}
	for i := range g.shards {
		g.shards[i].entries = map[string]*cachedProof{}
	}
	g.consult = g.authority
	g.maxCache.Store(DefaultCacheSize)
	g.quota.Store(DefaultQuota)
	return g
}

// SetCacheSize adjusts the proof-cache bound (0 disables caching: no new
// entries are inserted; existing entries remain until evicted).
func (g *Generic) SetCacheSize(n int) { g.maxCache.Store(int64(n)) }

// SetQuota adjusts the per-owner entry bound (DefaultQuota).
func (g *Generic) SetQuota(n int) { g.quota.Store(int64(n)) }

// Len reports the number of cached proofs.
func (g *Generic) Len() int { return int(g.size.Load()) }

// RegisterEmbedded installs an embedded authority: a predicate evaluated
// inside the guard process, cheaper than an external authority because no
// IPC crossing is needed (Figure 4, "embed auth"). It returns the channel
// name to use in proofs.
func (g *Generic) RegisterEmbedded(name string, fn func(nal.Formula) bool) string {
	ch := "embed:" + name
	g.embMu.Lock()
	defer g.embMu.Unlock()
	g.embedded[ch] = fn
	return ch
}

// Stats reports proof-cache hits, misses, and evictions.
func (g *Generic) Stats() (hits, misses, evictions uint64) {
	s := g.stats.Snapshot()
	return s.Hits, s.Misses, s.Evictions
}

// StatsSnapshot reports full proof-cache statistics in the shape shared
// with the kernel decision cache.
func (g *Generic) StatsSnapshot() cachestat.Stats { return g.stats.Snapshot() }

// shardIndex selects the stripe holding key.
func shardIndex(key []byte) int {
	return int(nal.HashBytes(key) & (guardShards - 1))
}

// Check implements kernel.Guard.
//
// A proof-cache hit allocates nothing (pinned by TestAllocGuardProofCacheHit
// and, through the kernel, TestAllocRemoteCallAuthzMiss): the key is
// rendered into a stack buffer with the goal's variables bound in place,
// and credentials resolve into stack arrays. A miss allocates only what it
// caches (checkMiss).
//
//nexus:noalloc
func (g *Generic) Check(req *kernel.GuardRequest) kernel.GuardDecision {
	if req.Proof == nil {
		return kernel.GuardDecision{Allow: false, Cacheable: true, Reason: "no proof supplied"}
	}

	var credBuf [8]nal.Formula // a request presenting more spills to the heap
	var idBuf [8]nal.FormulaID
	creds, credIDs, err := g.resolveCreds(req, credBuf[:0], idBuf[:0])
	if err != nil {
		return kernel.GuardDecision{Allow: false, Cacheable: false, Reason: err.Error()}
	}

	b := nal.Binding{Subject: req.Subject, Obj: req.Obj, Op: req.Op}
	var keyBuf [256]byte // a longer key spills to the heap
	key := appendCacheKey(keyBuf[:0], req.Goal, &b, req.Proof, creds, credIDs)
	sh := &g.shards[shardIndex(key)]
	sh.mu.RLock()
	entry, hit := sh.entries[string(key)]
	sh.mu.RUnlock()
	g.stats.Lookup(hit)

	if !hit {
		return g.checkMiss(req, &b, key, creds, credIDs)
	}
	// Structure already validated; only dynamic state needs re-checking.
	for _, a := range entry.authorities {
		if !g.authority(a.Channel, a.F) { //nexus:coldpath — authorities answer over IPC; label and certificate credentials consult none
			return kernel.GuardDecision{Allow: false, Cacheable: false,
				Reason: fmt.Sprintf("authority %s no longer affirms %s", a.Channel, a.F)}
		}
	}
	return kernel.GuardDecision{Allow: true, Cacheable: len(entry.authorities) == 0}
}

// checkMiss is Check on a proof-cache miss: it checks the proof against
// the goal bound by b and caches a valid proof under key, with the
// authority steps the check reports for re-validation on a hit. A compiled
// proof is compared with the goal in place, so the miss allocates only
// what insert stores, and a wrong-goal denial only its reason and error
// (TestAllocGuardProofCacheMiss).
func (g *Generic) checkMiss(req *kernel.GuardRequest, b *nal.Binding, key []byte, creds []nal.Formula, credIDs []nal.FormulaID) kernel.GuardDecision {
	// The Env and its one trust root stay on this frame: the checker
	// retains neither.
	trust := [1]nal.Principal{g.k.Prin}
	env := proof.Env{
		Credentials:   creds,
		CredentialIDs: credIDs,
		TrustRoots:    trust[:],
		Authority:     g.consult,
	}
	res, err := proof.CheckBound(req.Proof, req.Goal, b, &env)
	if err != nil {
		// A failed check is cacheable only if it cannot become valid
		// without a proof or goal update (which invalidates the cache entry
		// anyway) — i.e. when it consulted no authority. Its credentials
		// resolved, and a resolved credential never changes.
		return kernel.GuardDecision{Allow: false, Cacheable: res.AuthorityCalls == 0,
			Reason: err.Error()}
	}
	g.insert(key, req.Subject, res.Consulted) //nexus:coldpath — allocates only the entry it stores
	return kernel.GuardDecision{Allow: true, Cacheable: res.Cacheable}
}

// resolveCreds appends the credential list to creds, and the matching
// hash-cons handles to ids: inline credentials reuse the IDs interned at
// setproof, labelstore references are fetched from the mutable store and
// carry the ID their label recorded when it was created, and certificates
// are verified through the kernel's pre-verification cache — one
// fingerprint lookup on the warm path instead of a signature check. Duplicate
// certificates within one request resolve once. A credential that fails
// to resolve fails the check uncacheably: the label may yet be created, and
// the kernel's credential generation cannot stand for a label that it
// never saw leave.
func (g *Generic) resolveCreds(req *kernel.GuardRequest, creds []nal.Formula, ids []nal.FormulaID) ([]nal.Formula, []nal.FormulaID, error) {
	for i, c := range req.Creds {
		switch {
		case c.Inline != nil:
			var id nal.FormulaID
			if i < len(req.CredIDs) {
				id = req.CredIDs[i]
			}
			if id == 0 { //nexus:coldpath — setproof interned it; 0 only for a request built without IDs, or at cons saturation
				id, _ = nal.IDOf(c.Inline)
			}
			creds = append(creds, c.Inline)
			ids = append(ids, id)
		case c.Ref != nil:
			p, ok := g.k.Lookup(c.Ref.PID)
			if !ok {
				return nil, nil, fmt.Errorf("credential %d: process %d gone", i, c.Ref.PID)
			}
			l, err := p.Labels.Get(c.Ref.Handle)
			if err != nil {
				return nil, nil, fmt.Errorf("credential %d: %v", i, err)
			}
			creds = append(creds, l.Formula)
			ids = append(ids, l.ID())
		case c.Cert != nil:
			if j := prevCertIndex(req.Creds[:i], c.Cert); j >= 0 {
				// The same certificate appeared earlier in this request:
				// reuse its verified label instead of re-probing the cache.
				creds = append(creds, creds[j])
				ids = append(ids, ids[j])
				break
			}
			// Not allocation-free: the verify cache fingerprints the
			// certificate on every lookup. The pinned hit path presents
			// labelstore references and inline credentials.
			f, id, err := g.k.CertCache().Label(c.Cert) //nexus:coldpath
			if err != nil {
				return nil, nil, fmt.Errorf("credential %d: %v", i, err)
			}
			creds = append(creds, f)
			ids = append(ids, id)
		default:
			return nil, nil, fmt.Errorf("credential %d: empty", i)
		}
	}
	return creds, ids, nil
}

// prevCertIndex reports the position of an earlier credential presenting
// the same certificate object, or -1.
func prevCertIndex(prev []kernel.Credential, c *cert.Certificate) int {
	for j := range prev {
		if prev[j].Cert == c {
			return j
		}
	}
	return -1
}

// authority answers one authority consultation: embedded first, then
// external over IPC.
func (g *Generic) authority(channel string, f nal.Formula) bool {
	g.embMu.RLock()
	fn, ok := g.embedded[channel]
	g.embMu.RUnlock()
	if ok {
		return fn(f)
	}
	ans, err := g.k.QueryAuthority(channel, f)
	return err == nil && ans
}

// insert adds a validated proof to the cache, evicting preferentially from
// the same owner's entries (performance isolation, §2.9) and enforcing
// the per-owner quota. Under concurrent insertion the size and quota
// bounds may transiently overshoot by the number of racing inserters; they
// are exact when single-threaded.
func (g *Generic) insert(rawKey []byte, subject nal.Principal, auths []proof.Consultation) {
	max := g.maxCache.Load()
	if max <= 0 {
		return
	}
	si := shardIndex(rawKey)
	sh := &g.shards[si]

	sh.mu.RLock()
	_, exists := sh.entries[string(rawKey)]
	sh.mu.RUnlock()
	if exists {
		return
	}
	key := string(rawKey)
	// The quota's owner is rendered into a stack buffer and made a string
	// only for the entry stored below. It is not interned: per-process
	// principals die with their processes (CreateProcess).
	var ownerBuf [128]byte
	owner := g.appendOwner(ownerBuf[:0], subject)

	g.quotaMu.Lock()
	overQuota := int64(g.quotas[string(owner)]) >= g.quota.Load()
	g.quotaMu.Unlock()
	if overQuota {
		g.evictOne(si, owner, true)
	}
	if g.size.Load() >= max {
		g.evictOne(si, owner, false)
	}
	ownerKey := string(owner)

	// Size and quota accounting happens while the shard lock is held, so
	// an entry's existence and its counts change atomically: a concurrent
	// eviction can only touch the entry — and decrement the counts — after
	// this insert has published both. Lock order is shard → quotaMu, the
	// same as removeFirst, and no two shard locks are ever held at once.
	sh.mu.Lock()
	if _, ok := sh.entries[key]; ok {
		sh.mu.Unlock()
		return
	}
	sh.entries[key] = &cachedProof{owner: ownerKey, authorities: auths}
	sh.order = append(sh.order, key)
	g.size.Add(1)
	g.quotaMu.Lock()
	g.quotas[ownerKey]++
	g.quotaMu.Unlock()
	sh.mu.Unlock()
}

// appendOwner appends the canonical form of the principal that subject's
// cache entries are charged to (DefaultQuota): subject itself when it is
// a process of this kernel, the root of its principal tree otherwise.
func (g *Generic) appendOwner(dst []byte, subject nal.Principal) []byte {
	if nal.IsAncestor(g.k.Prin, subject) {
		return nal.AppendPrin(dst, subject)
	}
	return nal.AppendPrin(dst, nal.RootOf(subject))
}

// evictOne removes one cached proof and returns whether a victim was found.
// It prefers entries owned by owner (performance isolation: an owner over
// quota pays with its own entries); when ownedOnly is false it falls back
// to an entry of any owner. Shards are scanned starting at the inserting
// stripe, holding one shard lock at a time, and the victim is the oldest
// matching entry within the first shard that has one — per-shard FIFO, not
// a global age order.
func (g *Generic) evictOne(start int, owner []byte, ownedOnly bool) bool {
	for i := 0; i < guardShards; i++ {
		if g.shards[(start+i)%guardShards].removeFirst(g, func(e *cachedProof) bool {
			return e.owner == string(owner)
		}) {
			return true
		}
	}
	if ownedOnly {
		return false
	}
	for i := 0; i < guardShards; i++ {
		if g.shards[(start+i)%guardShards].removeFirst(g, func(*cachedProof) bool { return true }) {
			return true
		}
	}
	return false
}

// removeFirst evicts the oldest entry in the shard matching pred, updating
// the guard's size, quota, and eviction accounting. It reports whether an
// entry was removed.
func (s *proofShard) removeFirst(g *Generic, pred func(*cachedProof) bool) bool {
	s.mu.Lock()
	victim := -1
	var owner string
	for i, k := range s.order {
		if e := s.entries[k]; e != nil && pred(e) {
			victim, owner = i, e.owner
			break
		}
	}
	if victim == -1 {
		s.mu.Unlock()
		return false
	}
	delete(s.entries, s.order[victim])
	// Close the gap in place: FIFO order is kept and the array reused.
	n := copy(s.order[victim:], s.order[victim+1:])
	s.order[victim+n] = ""
	s.order = s.order[:victim+n]
	g.size.Add(-1)
	g.quotaMu.Lock()
	if g.quotas[owner]--; g.quotas[owner] <= 0 {
		delete(g.quotas, owner)
	}
	g.quotaMu.Unlock()
	s.mu.Unlock()
	g.stats.Evicted(1)
	return true
}

// appendCacheKey appends the key identifying a (goal, proof, credentials)
// combination to dst. The goal is rendered by the canonical encoder with
// its guard variables bound in place, which is byte for byte the
// instantiated goal's canonical form — deliberately NOT nal.KeyOf or
// nal.IDOf: instantiated goals embed per-process principals, so interning
// them would fill the global tables with dead entries as processes churn;
// the bounded, evicting proof cache is the right home for per-request
// keys. Credentials, which do repeat across requests, are encoded as
// hash-cons handles (a tag byte plus varint), so they are never
// re-serialized and duplicate credentials contribute identical short runs
// instead of inflating the key; a credential without a handle (cons
// saturation) falls back to its canonical bytes under a distinct tag.
func appendCacheKey(dst []byte, goal nal.Formula, b *nal.Binding, p *proof.Proof, creds []nal.Formula, ids []nal.FormulaID) []byte {
	dst = nal.AppendBound(dst, goal, b)
	dst = append(dst, 0)
	dst = append(dst, p.Fingerprint()...)
	for i, c := range creds {
		dst = append(dst, 0)
		if i < len(ids) && ids[i] != 0 {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(ids[i]))
		} else {
			dst = append(dst, 2)
			dst = nal.AppendFormula(dst, c)
		}
	}
	return dst
}
