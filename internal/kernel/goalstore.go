package kernel

import (
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// resourceKey identifies a guarded (operation, object) pair.
type resourceKey struct{ op, obj string }

// tupleKey is the access-control tuple.
type tupleKey struct{ subj, op, obj string }

// GoalEntry associates a goal formula (and optionally a designated guard)
// with an operation on an object (§2.5).
type GoalEntry struct {
	Goal  nal.Formula
	Guard Guard // nil selects the kernel's default guard
}

type goalStore struct {
	mu     sync.RWMutex
	goals  map[resourceKey]*GoalEntry
	owners map[string]nal.Principal // object → creator (bootstrap policy)
}

func newGoalStore() *goalStore {
	return &goalStore{goals: map[resourceKey]*GoalEntry{}, owners: map[string]nal.Principal{}}
}

// Credential is one label presented with a proof. Inline credentials are
// copied into the request. Labelstore references are fetched from the
// store on each guard check, and certificate credentials are verified
// through the kernel's pre-verification cache. A label is immutable and
// its (pid, handle) is never reused, so a reference either resolves to the
// same formula or fails; a certificate holds until it is revoked. Decisions
// on either are cached stamped with the kernel's credential generation,
// which every label removal and every revocation advances (Kernel.credGen).
type Credential struct {
	Inline nal.Formula
	Ref    *LabelRef
	Cert   *cert.Certificate
}

// LabelRef names a label held in some process's labelstore.
type LabelRef struct {
	PID    int
	Handle int
}

// RegisteredProof is the proof a subject has bound to an access tuple via
// the setproof control call; the kernel hands it to the guard on each
// decision-cache miss. SetProof compiles the proof and interns inline
// credentials once at registration, so the authorization path touches only
// IDs.
type RegisteredProof struct {
	Proof *proof.Proof
	Creds []Credential
	// CredIDs holds, position for position, the hash-cons handle of each
	// inline credential (0 for references, certificates, or at cons
	// saturation); guards fill the gaps per check.
	CredIDs []nal.FormulaID
}

// registration is a RegisteredProof as the proof store holds it, with
// what SetProof found in its credentials.
type registration struct {
	RegisteredProof
	// dynamic reports that a credential is a labelstore reference or a
	// certificate: a decision on this proof is cached stamped with the
	// credential generation.
	dynamic bool
}

// Guard decides authorization requests on decision-cache misses (§2.6).
//
// Check must not retain req after it returns: the kernel reuses the
// request for its next upcall. The values req refers to (the goal, the
// proof, the credentials) may be retained.
type Guard interface {
	Check(req *GuardRequest) GuardDecision
}

// GuardRequest carries everything a guard needs for one decision.
type GuardRequest struct {
	Kernel  *Kernel
	Subject nal.Principal
	Op, Obj string
	Goal    nal.Formula
	// Proof and Creds are the subject's registered proof, nil if none.
	Proof *proof.Proof
	Creds []Credential
	// CredIDs, when non-nil, is the registration-time interning of Creds
	// (see RegisteredProof.CredIDs).
	CredIDs []nal.FormulaID
}

// GuardDecision is the guard's answer, including whether the kernel may
// cache it (§2.8's cacheable bit on the guard-kernel interface).
type GuardDecision struct {
	Allow     bool
	Cacheable bool
	Reason    string
}

// RegisterObject records the creator of a nascent object so that the
// default policy — resource-manager.object says operation — protects it
// before any goal is set (§2.6).
func (k *Kernel) RegisterObject(obj string, owner nal.Principal) {
	k.goals.mu.Lock()
	defer k.goals.mu.Unlock()
	k.goals.owners[obj] = owner
}

// registerObjectIfNascent records owner as the object's creator only when
// no creator is recorded yet — the Session.OpenObject claim path, which
// must not let a later opener displace the first.
func (k *Kernel) registerObjectIfNascent(obj string, owner nal.Principal) {
	k.goals.mu.Lock()
	if _, ok := k.goals.owners[obj]; !ok {
		k.goals.owners[obj] = owner
	}
	k.goals.mu.Unlock()
}

// ReleaseObject removes the creator binding.
func (k *Kernel) ReleaseObject(obj string) {
	k.goals.mu.Lock()
	defer k.goals.mu.Unlock()
	delete(k.goals.owners, obj)
}

// SetGoal associates a goal formula with an operation on an object and
// vectors subsequent decisions to the given guard (nil = default). Setting
// a goal is itself an authorized operation on the object.
func (k *Kernel) SetGoal(caller *Process, op, obj string, goal nal.Formula, g Guard) error {
	if err := k.authorize(caller, "setgoal", obj); err != nil {
		return err
	}
	k.goals.mu.Lock()
	k.goals.goals[resourceKey{op, obj}] = &GoalEntry{Goal: goal, Guard: g}
	k.goals.mu.Unlock()
	// A goal update may affect every subject's entries for this resource:
	// clear the subregion (§2.8).
	k.dcache.InvalidateRegion(op, obj)
	return nil
}

// ClearGoal removes the goal for (op, obj).
func (k *Kernel) ClearGoal(caller *Process, op, obj string) error {
	if err := k.authorize(caller, "setgoal", obj); err != nil {
		return err
	}
	k.goals.mu.Lock()
	delete(k.goals.goals, resourceKey{op, obj})
	k.goals.mu.Unlock()
	k.dcache.InvalidateRegion(op, obj)
	return nil
}

// Goal returns the goal entry for (op, obj), if any.
func (k *Kernel) Goal(op, obj string) (*GoalEntry, bool) {
	k.goals.mu.RLock()
	defer k.goals.mu.RUnlock()
	e, ok := k.goals.goals[resourceKey{op, obj}]
	return e, ok
}

// SetProof registers the caller's proof for an access tuple; the kernel
// invalidates only the caller's cached decision for that tuple. The proof
// is compiled, its inline credentials interned and its dynamic ones noted
// here, once, so the authorization miss path never re-parses or
// re-serializes proof state. A remote peer's setproof registers through
// here too.
func (k *Kernel) SetProof(caller *Process, op, obj string, p *proof.Proof, creds []Credential) {
	subj := caller.PrinString()
	reg := &registration{RegisteredProof: RegisteredProof{Proof: p, Creds: creds}}
	if p != nil {
		p.Compiled() // warm; a compile-rejected proof falls back at check time
	}
	if len(creds) > 0 {
		reg.CredIDs = make([]nal.FormulaID, len(creds))
		for i, c := range creds {
			if c.Inline != nil {
				reg.CredIDs[i], _ = nal.IDOf(c.Inline)
			}
			if c.Ref != nil || c.Cert != nil {
				reg.dynamic = true
			}
		}
	}
	k.proofs.set(tupleKey{subj, op, obj}, reg)
	k.dcache.InvalidateEntry(subj, op, obj)
}

// ClearProof removes the caller's proof for the tuple.
func (k *Kernel) ClearProof(caller *Process, op, obj string) {
	subj := caller.PrinString()
	k.proofs.delete(tupleKey{subj, op, obj})
	k.dcache.InvalidateEntry(subj, op, obj)
}

// GuardUpcalls reports how many times the kernel crossed into a guard; the
// counter is lock-free and also published at /proc/kernel/guard_upcalls.
func (k *Kernel) GuardUpcalls() uint64 { return k.guardUpcalls.Load() }

// authorize enforces the goal (if any) on (subject, op, obj): decision
// cache first, guard upcall on miss (§2.8, Figure 1). The hit path is
// allocation-free, a cached denial included: it returns the error the
// cache built when the denial was stored. The miss path (authorizeMiss)
// allocates what it stores and a denial's error.
func (k *Kernel) authorize(from *Process, op, obj string) error {
	subj := from.PrinString()

	// Fast path: cached decision.
	if deny, ok := k.dcache.lookup(subj, op, obj, k, uint64(from.PID)); ok {
		if deny != nil {
			return deny
		}
		return nil
	}
	return k.authorizeMiss(from, subj, op, obj)
}

// guardReqs recycles the requests authorizeMiss hands to guards, which
// may not retain them (Guard).
var guardReqs = sync.Pool{New: func() any { return new(GuardRequest) }}

// authorizeMiss is the cache-miss continuation of authorize: goal lookup,
// guard upcall, audit record, cache fill. The upcall request comes from a
// pool, so an allowed decision allocates only what the guard and the
// decision cache store; a denial allocates its reason and the returned
// error. It stays //nexus:alloc-ok because those costs, and a designated
// guard's own, are the price of a policy decision, paid once per
// (subject, op, obj) epoch when the decision is cacheable, and on a proof
// presenting references or certificates once per credential generation.
//
//nexus:alloc-ok
func (k *Kernel) authorizeMiss(from *Process, subj, op, obj string) error {
	// The epoch is read before any goal or proof state: if a setgoal or
	// setproof invalidation lands while the decision below is in flight,
	// InsertIf discards the result instead of caching it stale. (Reading
	// it only after the fast-path miss keeps the cached path at two
	// atomic loads.)
	epoch := k.dcache.Epoch(op, obj)
	// The credential generation is read next, before any label or
	// certificate state: a label removal or a revocation that returns
	// while the decision is in flight leaves the entry stamped with an
	// older generation, which no later lookup accepts.
	gen := k.credGen()

	entry, hasGoal := k.Goal(op, obj)
	if !hasGoal {
		// Bootstrap default: a nascent object with a registered creator is
		// usable only by the creator or its superprincipals; everything
		// else defaults to allow.
		k.goals.mu.RLock()
		owner, registered := k.goals.owners[obj]
		k.goals.mu.RUnlock()
		allow := !registered || nal.IsAncestor(owner, from.Prin) || nal.IsAncestor(from.Prin, owner)
		if registered {
			// Unguarded resources stay off the audit log; a creator-protected
			// nascent object is a real policy decision and is recorded.
			k.audit.record(subj, op, obj, allow, "default policy")
		}
		k.dcache.InsertIf(subj, op, obj, allow, epoch)
		if allow {
			return nil
		}
		return abiErr(EACCES, op, "default policy protects nascent "+obj)
	}

	// Trivial ALLOW goal needs no guard.
	if _, ok := entry.Goal.(nal.TrueF); ok {
		k.dcache.InsertIf(subj, op, obj, true, epoch)
		return nil
	}

	g := entry.Guard
	if g == nil {
		g = k.defaultGuard()
	}
	if g == nil {
		k.audit.record(subj, op, obj, false, "no guard bound to goal")
		return ErrNoGuard
	}

	req := guardReqs.Get().(*GuardRequest)
	*req = GuardRequest{
		Kernel:  k,
		Subject: from.Prin,
		Op:      op,
		Obj:     obj,
		Goal:    entry.Goal,
	}
	dynamic := false
	if reg := k.proofs.get(tupleKey{subj, op, obj}); reg != nil {
		req.Proof = reg.Proof
		req.Creds = reg.Creds
		req.CredIDs = reg.CredIDs
		dynamic = reg.dynamic
		k.metrics.add(uint64(from.PID), mProofUpcalls, 1)
	}
	k.guardUpcalls.Add(1)
	t0 := time.Now()
	dec := g.Check(req)
	k.metrics.guardNs.observe(time.Since(t0))
	*req = GuardRequest{} // drop the references before the request idles in the pool
	guardReqs.Put(req)
	k.audit.record(subj, op, obj, dec.Allow, dec.Reason)
	if dec.Cacheable {
		k.dcache.insertIf(subj, op, obj, decisionWord(dec.Allow, dynamic, gen), epoch)
	}
	if !dec.Allow {
		return abiErr(EACCES, op, dec.Reason)
	}
	return nil
}

// DecisionCacheStats exposes hit/miss counters for the benchmarks.
func (k *Kernel) DecisionCacheStats() (hits, misses uint64) {
	return k.dcache.Stats()
}

// DCache exposes the decision cache for configuration in benchmarks.
func (k *Kernel) DCache() *DecisionCache { return k.dcache }
