package guard

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/disk"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/tpm"
)

type world struct {
	k   *kernel.Kernel
	g   *Generic
	srv *kernel.Process
	cli *kernel.Process
	pt  *kernel.Port
}

func newWorld(t *testing.T) *world {
	t.Helper()
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(tp, disk.New(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := New(k)
	k.SetGuard(g)
	srv, _ := k.CreateProcess(0, []byte("server"))
	cli, _ := k.CreateProcess(0, []byte("client"))
	pt, _ := k.CreatePort(srv, func(kernel.Caller, *kernel.Msg) ([]byte, error) {
		return []byte("ok"), nil
	})
	return &world{k: k, g: g, srv: srv, cli: cli, pt: pt}
}

func (w *world) call(op, obj string) error {
	_, err := w.k.Call(w.cli, w.pt.ID, &kernel.Msg{Op: op, Obj: obj})
	return err
}

func TestNoProofDenied(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess")
	if err := w.k.SetGoal(w.srv, "read", "obj", goal, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("no proof: want ErrDenied, got %v", err)
	}
}

func TestPassWithInlineCredential(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess")
	if err := w.k.SetGoal(w.srv, "read", "obj", goal, nil); err != nil {
		t.Fatal(err)
	}
	cred := nal.Says{P: w.cli.Prin, F: nal.Pred{Name: "wantsAccess"}}
	p := proof.Assume(0, cred)
	w.k.SetProof(w.cli, "read", "obj", p, []kernel.Credential{{Inline: cred}})
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("pass case: %v", err)
	}
	// Decision cached: repeated calls don't upcall.
	before := w.k.GuardUpcalls()
	for i := 0; i < 5; i++ {
		if err := w.call("read", "obj"); err != nil {
			t.Fatal(err)
		}
	}
	if w.k.GuardUpcalls() != before {
		t.Error("cacheable pass must not upcall again")
	}
}

func TestUnsoundProofDenied(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess")
	w.k.SetGoal(w.srv, "read", "obj", goal, nil)
	// Proof concludes the wrong formula.
	cred := nal.MustParse("Other says wantsAccess")
	p := proof.Assume(0, cred)
	w.k.SetProof(w.cli, "read", "obj", p, []kernel.Credential{{Inline: cred}})
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("unsound proof: want ErrDenied, got %v", err)
	}
}

func TestMissingCredentialDenied(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess")
	w.k.SetGoal(w.srv, "read", "obj", goal, nil)
	cred := nal.Says{P: w.cli.Prin, F: nal.Pred{Name: "wantsAccess"}}
	p := proof.Assume(0, cred)
	w.k.SetProof(w.cli, "read", "obj", p, nil) // proof references cred #0, none given
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("missing cred: want ErrDenied, got %v", err)
	}
}

func TestLabelstoreRefCredential(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess")
	w.k.SetGoal(w.srv, "read", "obj", goal, nil)
	l, err := w.cli.Labels.Say("wantsAccess")
	if err != nil {
		t.Fatal(err)
	}
	cred := l.Formula
	p := proof.Assume(0, cred)
	w.k.SetProof(w.cli, "read", "obj", p,
		[]kernel.Credential{{Ref: &kernel.LabelRef{PID: w.cli.PID, Handle: l.Handle}}})
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("ref credential: %v", err)
	}
	// The decision is kernel-cached under the credential generation: the
	// next call makes no upcall.
	before := w.k.GuardUpcalls()
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("cached ref credential: %v", err)
	}
	if got := w.k.GuardUpcalls() - before; got != 0 {
		t.Errorf("cached ref credential decision made %d upcalls, want 0", got)
	}
	// Deleting the label revokes access on the next check, cached
	// decision notwithstanding.
	if err := w.cli.Labels.Delete(l.Handle); err != nil {
		t.Fatal(err)
	}
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("deleted label: want ErrDenied, got %v", err)
	}
}

func TestEmbeddedAuthority(t *testing.T) {
	w := newWorld(t)
	affirm := true
	ch := w.g.RegisterEmbedded("clock", func(f nal.Formula) bool {
		return affirm && f.String() == "NTP says TimeNow < @2026-03-19"
	})
	goal := nal.MustParse("NTP says TimeNow < @2026-03-19")
	w.k.SetGoal(w.srv, "read", "obj", goal, nil)
	p := &proof.Proof{Steps: []proof.Step{
		{Rule: proof.RuleAuthority, Channel: ch, F: goal},
	}}
	w.k.SetProof(w.cli, "read", "obj", p, nil)
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("embedded authority: %v", err)
	}
	// Non-cacheable: every call re-upcalls and re-queries.
	before := w.k.GuardUpcalls()
	w.call("read", "obj")
	if w.k.GuardUpcalls() == before {
		t.Error("authority decision must not be kernel-cached")
	}
	// The guard's proof cache still avoids structural re-checking.
	hits, _, _ := w.g.Stats()
	if hits == 0 {
		t.Error("proof cache should hit on repeat evaluation")
	}
	// Authority flips: access revoked immediately.
	affirm = false
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("flipped authority: want ErrDenied, got %v", err)
	}
}

func TestExternalAuthority(t *testing.T) {
	w := newWorld(t)
	ap, _ := w.k.CreateProcess(0, []byte("ntp"))
	a, err := w.k.RegisterAuthority(ap, func(f nal.Formula) bool {
		return f.String() == "NTP says TimeNow < @2026-03-19"
	})
	if err != nil {
		t.Fatal(err)
	}
	goal := nal.MustParse("NTP says TimeNow < @2026-03-19")
	w.k.SetGoal(w.srv, "read", "obj", goal, nil)
	p := &proof.Proof{Steps: []proof.Step{
		{Rule: proof.RuleAuthority, Channel: a.Channel(), F: goal},
	}}
	w.k.SetProof(w.cli, "read", "obj", p, nil)
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("external authority: %v", err)
	}
	// Unknown channel denies.
	p2 := &proof.Proof{Steps: []proof.Step{
		{Rule: proof.RuleAuthority, Channel: "ipc:9999", F: goal},
	}}
	w.k.SetProof(w.cli, "read", "obj", p2, nil)
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("unknown authority: want ErrDenied, got %v", err)
	}
}

func TestGuardSubstitutionBindsSubjectObjectOp(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse(`?S says requested(?Op, ?O)`)
	w.k.SetGoal(w.srv, "write", "obj9", goal, nil)
	cred := nal.Says{P: w.cli.Prin, F: nal.Pred{
		Name: "requested",
		Args: []nal.Term{nal.Str("write"), nal.Str("obj9")},
	}}
	p := proof.Assume(0, cred)
	w.k.SetProof(w.cli, "write", "obj9", p, []kernel.Credential{{Inline: cred}})
	if err := w.call("write", "obj9"); err != nil {
		t.Fatalf("substituted goal: %v", err)
	}
}

func TestDelegationProofThroughGuard(t *testing.T) {
	// The §2.5 time-sensitive file shape end-to-end: owner delegates
	// TimeNow to NTP; NTP's current claim arrives via authority.
	w := newWorld(t)
	owner, _ := w.k.CreateProcess(0, []byte("owner"))
	ntp, _ := w.k.CreateProcess(0, []byte("ntp"))
	a, err := w.k.RegisterAuthority(ntp, func(f nal.Formula) bool {
		want := nal.Says{P: ntp.Prin, F: nal.MustParse("TimeNow < @2026-03-19")}
		return f.Equal(nal.Formula(want))
	})
	if err != nil {
		t.Fatal(err)
	}
	deleg, err := owner.Labels.SayFormula(nal.SpeaksFor{
		A: ntp.Prin, B: owner.Prin, On: &nal.Pattern{Pred: "TimeNow"},
	})
	if err != nil {
		t.Fatal(err)
	}
	goal := nal.Says{P: owner.Prin, F: nal.MustParse("TimeNow < @2026-03-19")}
	w.k.SetGoal(w.srv, "read", "file", goal, nil)

	d := &proof.Deriver{
		Creds:      []nal.Formula{deleg.Formula},
		TrustRoots: []nal.Principal{w.k.Prin},
		Authority: func(f nal.Formula) (string, bool) {
			if s, ok := f.(nal.Says); ok && s.P.EqualPrin(ntp.Prin) {
				return a.Channel(), true
			}
			return "", false
		},
	}
	pf, err := d.Derive(goal)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	w.k.SetProof(w.cli, "read", "file", pf, []kernel.Credential{{Inline: deleg.Formula}})
	if err := w.call("read", "file"); err != nil {
		t.Fatalf("delegated time check: %v", err)
	}
}

func TestProofCacheEviction(t *testing.T) {
	w := newWorld(t)
	w.g.SetCacheSize(4)
	goal := nal.MustParse("?S says wantsAccess(?O)")
	w.k.DCache().Disable() // force guard evaluation each time
	for i := 0; i < 10; i++ {
		obj := "obj" + string(rune('a'+i))
		w.k.SetGoal(w.srv, "read", obj, goal, nil)
		cred := nal.Says{P: w.cli.Prin, F: nal.Pred{Name: "wantsAccess", Args: []nal.Term{nal.Str(obj)}}}
		w.k.SetProof(w.cli, "read", obj, proof.Assume(0, cred), []kernel.Credential{{Inline: cred}})
		if err := w.call("read", obj); err != nil {
			t.Fatalf("obj %d: %v", i, err)
		}
	}
	_, _, evictions := w.g.Stats()
	if evictions == 0 {
		t.Error("bounded cache must evict")
	}
}

func TestGuardSeparateForResource(t *testing.T) {
	// A designated guard on one resource; the default guard elsewhere.
	w := newWorld(t)
	denied := 0
	customGuard := guardFunc(func(req *kernel.GuardRequest) kernel.GuardDecision {
		denied++
		return kernel.GuardDecision{Allow: false, Cacheable: false, Reason: "custom"}
	})
	w.k.SetGoal(w.srv, "read", "special", nal.MustParse("x"), customGuard)
	if err := w.call("read", "special"); !errors.Is(err, kernel.ErrDenied) {
		t.Errorf("custom guard: want ErrDenied, got %v", err)
	}
	if denied != 1 {
		t.Error("custom guard not consulted")
	}
}

type guardFunc func(*kernel.GuardRequest) kernel.GuardDecision

func (f guardFunc) Check(r *kernel.GuardRequest) kernel.GuardDecision { return f(r) }

func TestSetCacheSizeZeroDisablesCaching(t *testing.T) {
	w := newWorld(t)
	w.g.SetCacheSize(0)
	w.k.DCache().Disable() // force every call through the guard
	goal := nal.MustParse("?S says wantsAccess")
	w.k.SetGoal(w.srv, "read", "obj", goal, nil)
	cred := nal.Says{P: w.cli.Prin, F: nal.Pred{Name: "wantsAccess"}}
	w.k.SetProof(w.cli, "read", "obj", proof.Assume(0, cred), []kernel.Credential{{Inline: cred}})
	for i := 0; i < 3; i++ {
		if err := w.call("read", "obj"); err != nil {
			t.Fatal(err)
		}
	}
	if w.g.Len() != 0 {
		t.Errorf("disabled proof cache holds %d entries, want 0", w.g.Len())
	}
	s := w.g.StatsSnapshot()
	if s.Hits != 0 || s.Misses != 3 {
		t.Errorf("hits=%d misses=%d, want 0 hits and 3 misses with caching disabled", s.Hits, s.Misses)
	}
}

// stressRequest builds a valid inline-credential request for a fabricated
// subject, bypassing kernel process creation so that tests control the
// principal tree root.
func stressRequest(k *kernel.Kernel, subj nal.Principal, obj string) *kernel.GuardRequest {
	cred := nal.Says{P: subj, F: nal.Pred{
		Name: "wantsAccess", Args: []nal.Term{nal.Str(obj)},
	}}
	return &kernel.GuardRequest{
		Kernel:  k,
		Subject: subj,
		Op:      "read",
		Obj:     obj,
		Goal:    nal.MustParse("?S says wantsAccess(?O)"),
		Proof:   proof.Assume(0, cred),
		Creds:   []kernel.Credential{{Inline: cred}},
	}
}

// TestQuotaEvictionTargetsOwningRoot verifies that a principal exceeding
// its quota evicts its own entries, not another principal's (performance
// isolation, §2.9). Neither principal is a process of the guard's kernel,
// so each is charged to its root; TestQuotaPerProcess covers two
// processes of one kernel, TestQuotaPeerSharesRoot one peer's many.
func TestQuotaEvictionTargetsOwningRoot(t *testing.T) {
	w := newWorld(t)
	w.g.SetQuota(2)
	alice := nal.MustPrincipal("alice.p1")
	bob := nal.MustPrincipal("bob.p1")

	// Bob caches one proof; Alice then overflows her quota of 2.
	if d := w.g.Check(stressRequest(w.k, bob, "bobobj")); !d.Allow {
		t.Fatalf("bob denied: %s", d.Reason)
	}
	for i := 0; i < 4; i++ {
		obj := "aliceobj" + string(rune('a'+i))
		if d := w.g.Check(stressRequest(w.k, alice, obj)); !d.Allow {
			t.Fatalf("alice denied: %s", d.Reason)
		}
	}
	_, _, evictions := w.g.Stats()
	if evictions != 2 {
		t.Errorf("evictions = %d, want 2 (alice's 3rd and 4th inserts evict her own)", evictions)
	}
	if got := w.g.Len(); got != 3 {
		t.Errorf("cache len = %d, want 3 (bob's entry plus alice's quota of 2)", got)
	}
	// Bob's entry survived: re-checking it hits the cache. Had eviction
	// targeted the wrong root, bob's entry would be gone and alice would
	// hold more than her quota.
	before := w.g.StatsSnapshot().Hits
	if d := w.g.Check(stressRequest(w.k, bob, "bobobj")); !d.Allow {
		t.Fatalf("bob re-check denied: %s", d.Reason)
	}
	if w.g.StatsSnapshot().Hits != before+1 {
		t.Error("bob's cached proof was evicted by alice's quota overflow")
	}
}

// TestQuotaPerProcess verifies that the quota is per process, not per
// kernel: two processes of one kernel share a principal root (the
// kernel's), yet one overflowing its quota of 2 evicts only its own
// entries, and the other's entry survives.
func TestQuotaPerProcess(t *testing.T) {
	w := newWorld(t)
	w.g.SetQuota(2)
	if !nal.RootOf(w.srv.Prin).EqualPrin(nal.RootOf(w.cli.Prin)) {
		t.Fatal("the two processes do not share a principal root")
	}

	// The server caches one proof; the client then overflows its quota.
	if d := w.g.Check(stressRequest(w.k, w.srv.Prin, "srvobj")); !d.Allow {
		t.Fatalf("server denied: %s", d.Reason)
	}
	for i := 0; i < 4; i++ {
		obj := "cliobj" + string(rune('a'+i))
		if d := w.g.Check(stressRequest(w.k, w.cli.Prin, obj)); !d.Allow {
			t.Fatalf("client denied: %s", d.Reason)
		}
	}
	if _, _, evictions := w.g.Stats(); evictions != 2 {
		t.Errorf("evictions = %d, want 2 (the client's 3rd and 4th inserts evict its own)", evictions)
	}
	if got := w.g.Len(); got != 3 {
		t.Errorf("cache len = %d, want 3 (the server's entry plus the client's quota of 2)", got)
	}
	before := w.g.StatsSnapshot().Hits
	if d := w.g.Check(stressRequest(w.k, w.srv.Prin, "srvobj")); !d.Allow {
		t.Fatalf("server re-check denied: %s", d.Reason)
	}
	if w.g.StatsSnapshot().Hits != before+1 {
		t.Error("the server's cached proof was evicted by the client's quota overflow")
	}
}

// TestQuotaPeerSharesRoot verifies that every subprincipal of a foreign
// root shares the root's quota. A peer names its proxied processes freely
// on the wire (key:<peer NK>.<boot>.ipd.<pid>); were each pid its own
// owner, one peer spreading inserts over many pids would fill the cache
// and then evict a local process's entries through the global bound.
func TestQuotaPeerSharesRoot(t *testing.T) {
	w := newWorld(t)
	w.g.SetQuota(2)
	w.g.SetCacheSize(4)
	peer := nal.SubOf(nal.Key("peer-nk"), "peer-boot")

	if d := w.g.Check(stressRequest(w.k, w.srv.Prin, "srvobj")); !d.Allow {
		t.Fatalf("server denied: %s", d.Reason)
	}
	for pid := 1; pid <= 32; pid++ {
		subj := nal.SubChain(peer, "ipd", strconv.Itoa(pid))
		if d := w.g.Check(stressRequest(w.k, subj, "peerobj")); !d.Allow {
			t.Fatalf("peer process %d denied: %s", pid, d.Reason)
		}
	}
	if _, _, evictions := w.g.Stats(); evictions != 30 {
		t.Errorf("evictions = %d, want 30 (the peer's 3rd to 32nd inserts evict its own)", evictions)
	}
	if got := w.g.Len(); got != 3 {
		t.Errorf("cache len = %d, want 3 (the server's entry plus the peer's quota of 2)", got)
	}
	before := w.g.StatsSnapshot().Hits
	if d := w.g.Check(stressRequest(w.k, w.srv.Prin, "srvobj")); !d.Allow {
		t.Fatalf("server re-check denied: %s", d.Reason)
	}
	if w.g.StatsSnapshot().Hits != before+1 {
		t.Error("the server's cached proof was evicted by one peer's many processes")
	}
}

// TestFullCacheEvictionPrefersOwnRoot verifies that when the global bound
// is hit, the inserting principal's own entries are evicted first.
func TestFullCacheEvictionPrefersOwnRoot(t *testing.T) {
	w := newWorld(t)
	w.g.SetCacheSize(3)
	alice := nal.MustPrincipal("alice.p1")
	bob := nal.MustPrincipal("bob.p1")

	w.g.Check(stressRequest(w.k, bob, "bob1"))
	w.g.Check(stressRequest(w.k, alice, "alice1"))
	w.g.Check(stressRequest(w.k, alice, "alice2"))
	// Cache full (3 entries). Alice's next insert evicts alice1, not bob1.
	w.g.Check(stressRequest(w.k, alice, "alice3"))

	if got := w.g.Len(); got != 3 {
		t.Errorf("cache len = %d, want 3", got)
	}
	if _, _, evictions := w.g.Stats(); evictions != 1 {
		t.Errorf("evictions = %d, want exactly 1", evictions)
	}
	before := w.g.StatsSnapshot().Hits
	w.g.Check(stressRequest(w.k, bob, "bob1"))
	if w.g.StatsSnapshot().Hits != before+1 {
		t.Error("bob's entry was evicted although alice owned entries of her own")
	}
}

// TestGuardStatsShape verifies the shared stats contract: lookups always
// equals hits + misses, and the tuple accessor agrees with the snapshot.
func TestGuardStatsShape(t *testing.T) {
	w := newWorld(t)
	alice := nal.MustPrincipal("alice.p1")
	w.g.Check(stressRequest(w.k, alice, "x"))
	w.g.Check(stressRequest(w.k, alice, "x"))
	s := w.g.StatsSnapshot()
	if s.Lookups != s.Hits+s.Misses {
		t.Errorf("stats inconsistent: %+v", s)
	}
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", s.Hits, s.Misses)
	}
	h, m, e := w.g.Stats()
	if h != s.Hits || m != s.Misses || e != s.Evictions {
		t.Error("Stats() disagrees with StatsSnapshot()")
	}
}

// TestRemoveFirstKeepsFIFO evicts from the middle, the front and the back
// of a shard and checks that the survivors keep their insertion order and
// stay in step with the entry map.
func TestRemoveFirstKeepsFIFO(t *testing.T) {
	g := &Generic{quotas: map[string]int{}}
	sh := &proofShard{entries: map[string]*cachedProof{}}
	for _, k := range []string{"a", "b", "c", "d", "e"} {
		sh.entries[k] = &cachedProof{owner: k}
		sh.order = append(sh.order, k)
		g.quotas[k]++
	}
	for _, victim := range []string{"c", "a", "e"} {
		if !sh.removeFirst(g, func(e *cachedProof) bool { return e.owner == victim }) {
			t.Fatalf("no entry %q to evict", victim)
		}
	}
	if got := strings.Join(sh.order, ","); got != "b,d" || len(sh.entries) != 2 {
		t.Fatalf("after evicting c, a, e: order %q with %d entries, want \"b,d\" with 2", got, len(sh.entries))
	}
	for _, k := range sh.order {
		if sh.entries[k] == nil {
			t.Errorf("order names %q, which has no entry", k)
		}
	}
	if sh.removeFirst(g, func(e *cachedProof) bool { return e.owner == "c" }) {
		t.Error("evicted an entry that is gone")
	}
}
