package guard

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// certWorld extends the guard test world with an external signer and a
// certificate credential proving the goal.
func certWorld(t *testing.T) (*world, *cert.Certificate, nal.Formula) {
	t.Helper()
	w := newWorld(t)
	key, err := rsa.GenerateKey(rand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cert.Sign(cert.Statement{
		Formula: "wantsAccess",
		Serial:  1,
		Issued:  time.Unix(1700000000, 0),
	}, key)
	if err != nil {
		t.Fatal(err)
	}
	label, err := c.ToLabel() // key:<fp> says wantsAccess
	if err != nil {
		t.Fatal(err)
	}
	goal := label
	if err := w.k.SetGoal(w.srv, "read", "obj", goal, nil); err != nil {
		t.Fatal(err)
	}
	w.k.SetProof(w.cli, "read", "obj", proof.Assume(0, label),
		[]kernel.Credential{{Cert: c}})
	return w, c, label
}

// TestCertCredentialPreVerified: the first check verifies the RSA
// signature. The decision is kernel-cached, so later calls neither upcall
// nor probe the verify cache; with the decision cache off, every later
// check reaches the guard and resolves the certificate with a verify-cache
// hit, never a second verification.
func TestCertCredentialPreVerified(t *testing.T) {
	w, _, _ := certWorld(t)
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("first call: %v", err)
	}
	s0 := w.k.CertCache().Stats()
	if s0.Misses != 1 {
		t.Fatalf("first check: %+v, want exactly one verification", s0)
	}
	upcalls := w.k.GuardUpcalls()
	for i := 0; i < 3; i++ {
		if err := w.call("read", "obj"); err != nil {
			t.Fatalf("cached call %d: %v", i, err)
		}
	}
	if got := w.k.GuardUpcalls() - upcalls; got != 0 {
		t.Errorf("cached certificate decision made %d upcalls, want 0", got)
	}
	if s := w.k.CertCache().Stats(); s.Lookups != s0.Lookups {
		t.Errorf("cached calls probed the verify cache: %+v, was %+v", s, s0)
	}

	w.k.DCache().Disable()
	upcalls = w.k.GuardUpcalls()
	for i := 0; i < 3; i++ {
		if err := w.call("read", "obj"); err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
	}
	if got := w.k.GuardUpcalls() - upcalls; got != 3 {
		t.Errorf("%d upcalls with the decision cache off, want 3", got)
	}
	s1 := w.k.CertCache().Stats()
	if s1.Misses != 1 {
		t.Errorf("warm checks re-verified the certificate: %+v", s1)
	}
	if s1.Hits < 3 {
		t.Errorf("warm checks did not hit the pre-verification cache: %+v", s1)
	}
}

// TestCertRevocationForcesRecheck is the invalidation-correctness
// regression: a revoked credential denies the very next authorization, even
// though the guard's proof cache and the subproof memo are warm, because
// a revocation advances the credential generation that the kernel's
// cached certificate-backed decision is stamped with.
func TestCertRevocationForcesRecheck(t *testing.T) {
	w, c, _ := certWorld(t)
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("pre-revocation: %v", err)
	}
	w.k.CertCache().Revoke(c.Fingerprint())
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Fatalf("post-revocation: want ErrDenied, got %v", err)
	}
}

// TestSignerRevocationForcesRecheck does the same via the signing key.
func TestSignerRevocationForcesRecheck(t *testing.T) {
	w, c, _ := certWorld(t)
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("pre-revocation: %v", err)
	}
	signer, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	w.k.CertCache().RevokeSigner(signer)
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Fatalf("post-revocation: want ErrDenied, got %v", err)
	}
}

// TestGoalChangeForcesRecheck: replacing the goal formula invalidates
// cached decisions and the registered proof must discharge the new goal.
func TestGoalChangeForcesRecheck(t *testing.T) {
	w := newWorld(t)
	goal := nal.MustParse("?S says wantsAccess")
	if err := w.k.SetGoal(w.srv, "read", "obj", goal, nil); err != nil {
		t.Fatal(err)
	}
	cred := nal.Says{P: w.cli.Prin, F: nal.Pred{Name: "wantsAccess"}}
	w.k.SetProof(w.cli, "read", "obj", proof.Assume(0, cred),
		[]kernel.Credential{{Inline: cred}})
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("original goal: %v", err)
	}
	// Tighten the goal; the warm decision must not survive.
	if err := w.k.SetGoal(w.srv, "read", "obj", nal.MustParse("?S says elevated"), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.call("read", "obj"); !errors.Is(err, kernel.ErrDenied) {
		t.Fatalf("tightened goal: want ErrDenied, got %v", err)
	}
	// And back: allowed again.
	if err := w.k.SetGoal(w.srv, "read", "obj", goal, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("restored goal: %v", err)
	}
}

// TestDuplicateCertsResolveOnce: presenting the same certificate twice in
// one credential list verifies (and probes the cache) once, and the two
// positions resolve to the same label.
func TestDuplicateCertsResolveOnce(t *testing.T) {
	w := newWorld(t)
	key, _ := rsa.GenerateKey(rand.Reader, 1024)
	c, err := cert.Sign(cert.Statement{Formula: "wantsAccess", Serial: 1,
		Issued: time.Unix(1700000000, 0)}, key)
	if err != nil {
		t.Fatal(err)
	}
	label, _ := c.ToLabel()
	if err := w.k.SetGoal(w.srv, "read", "obj", label, nil); err != nil {
		t.Fatal(err)
	}
	// Proof imports credential #1 — the duplicate — so dedupe must preserve
	// positions, not collapse the list.
	w.k.SetProof(w.cli, "read", "obj", proof.Assume(1, label),
		[]kernel.Credential{{Cert: c}, {Cert: c}})
	if err := w.call("read", "obj"); err != nil {
		t.Fatalf("duplicate-cert proof: %v", err)
	}
	s := w.k.CertCache().Stats()
	if s.Lookups != 1 || s.Misses != 1 {
		t.Errorf("duplicate certificate probed the cache twice: %+v", s)
	}
}
