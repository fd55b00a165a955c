// Credential pre-verification: a certificate's RSA signature check and
// says-extraction cost tens of microseconds — three orders of magnitude
// above a warm authorization decision (Figure 6's "cred key" row). A
// VerifyCache performs that work once per distinct certificate and serves
// every later presentation as a fingerprint lookup, so guards that receive
// certificate credentials stay on the fast path.
//
// Revocation: labels are indefinitely valid in the logic (§2.7), but an
// operator can revoke a certificate (or every certificate by a signer) at
// the cache: the entry is dropped, the fingerprint blacklisted, and every
// subsequent Label call fails with ErrRevoked. Each revocation then
// advances the cache's generation, which the kernel folds into the
// generation its cached certificate-backed decisions are stamped with, so
// a revocation takes effect on the very next authorization check.
package cert

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/cachestat"
	"repro/internal/nal"
)

// ErrRevoked reports a certificate rejected by revocation, either of the
// certificate itself or of its signing key.
var ErrRevoked = errors.New("cert: certificate revoked")

// Fingerprint returns the hex SHA-256 over the certificate's wire fields,
// identifying this exact signed artifact (statement, signer, signature).
func (c *Certificate) Fingerprint() string {
	h := sha256.New()
	h.Write(c.RawTBS)
	h.Write([]byte{0})
	h.Write(c.SignerKey)
	h.Write([]byte{0})
	h.Write(c.Sig)
	return hex.EncodeToString(h.Sum(nil))
}

// VerifyCache memoizes certificate verification by fingerprint. All methods
// are safe for concurrent use.
type VerifyCache struct {
	shards [verifyShards]vcShard

	revMu          sync.RWMutex
	revokedCerts   map[string]struct{}
	revokedSigners map[string]struct{}
	// gen counts revocations, bumped after the blacklist holds them.
	gen atomic.Uint64

	stats cachestat.Counters
}

const (
	verifyShards = 16
	// verifyShardCap bounds entries per shard (FIFO eviction); an evicted
	// certificate simply re-verifies on next use.
	verifyShardCap = 256
)

type vcShard struct {
	mu    sync.RWMutex
	m     map[string]vcEntry
	order []string
}

// vcEntry is one pre-verified certificate: the NAL label it denotes, the
// label's hash-cons handle (0 if the table was saturated), and the signer
// fingerprint for signer-wide revocation.
type vcEntry struct {
	label   nal.Formula
	labelID nal.FormulaID
	signer  string
}

// NewVerifyCache creates an empty cache.
func NewVerifyCache() *VerifyCache {
	vc := &VerifyCache{
		revokedCerts:   map[string]struct{}{},
		revokedSigners: map[string]struct{}{},
	}
	for i := range vc.shards {
		vc.shards[i].m = map[string]vcEntry{}
	}
	return vc
}

func (vc *VerifyCache) shard(fp string) *vcShard {
	return &vc.shards[nal.HashString(fp)&(verifyShards-1)]
}

// Label verifies the certificate — via the cache when possible — and
// returns the NAL label it denotes ("key:<signer> says ..."), together with
// the label's hash-cons handle (0 when unavailable). Revoked certificates
// fail with ErrRevoked whether or not they were previously cached.
func (vc *VerifyCache) Label(c *Certificate) (nal.Formula, nal.FormulaID, error) {
	fp := c.Fingerprint()
	sh := vc.shard(fp)
	sh.mu.RLock()
	e, hit := sh.m[fp]
	sh.mu.RUnlock()

	// Probes come from guard checks, off the warm path: one hit stripe.
	if hit {
		if vc.revoked(fp, e.signer) {
			vc.stats.Lookup(0, false)
			return nil, 0, ErrRevoked
		}
		vc.stats.Lookup(0, true)
		return e.label, e.labelID, nil
	}
	vc.stats.Lookup(0, false)

	signer, err := c.Verify()
	if err != nil {
		return nil, 0, err
	}
	if vc.revoked(fp, signer) {
		return nil, 0, ErrRevoked
	}
	label, err := c.ToLabel()
	if err != nil {
		return nil, 0, err
	}
	id, _ := nal.IDOf(label) // 0 at cons saturation; callers handle it
	sh.mu.Lock()
	if _, ok := sh.m[fp]; !ok {
		if len(sh.order) >= verifyShardCap {
			delete(sh.m, sh.order[0])
			sh.order = sh.order[1:]
			vc.stats.Evicted(1)
		}
		sh.m[fp] = vcEntry{label: label, labelID: id, signer: signer}
		sh.order = append(sh.order, fp)
	}
	sh.mu.Unlock()
	return label, id, nil
}

// Revoked reports whether the certificate fingerprint, or its signer's key
// fingerprint, has been blacklisted. Fast paths that skip re-verification
// (per-connection re-attestation tables) consult this so a revocation still
// takes effect on the next crossing.
func (vc *VerifyCache) Revoked(certFP, signerFP string) bool {
	return vc.revoked(certFP, signerFP)
}

func (vc *VerifyCache) revoked(certFP, signerFP string) bool {
	vc.revMu.RLock()
	defer vc.revMu.RUnlock()
	if _, ok := vc.revokedCerts[certFP]; ok {
		return true
	}
	_, ok := vc.revokedSigners[signerFP]
	return ok
}

// Generation counts the Revoke and RevokeSigner calls that have
// blacklisted their certificate or signer. It only grows: a decision made
// on certificates that read generation g still holds while it reads g.
func (vc *VerifyCache) Generation() uint64 { return vc.gen.Load() }

// Revoke blacklists one certificate by fingerprint and drops its cached
// verification. Idempotent.
func (vc *VerifyCache) Revoke(certFP string) {
	vc.revMu.Lock()
	vc.revokedCerts[certFP] = struct{}{}
	vc.revMu.Unlock()
	vc.gen.Add(1)
	sh := vc.shard(certFP)
	sh.mu.Lock()
	if _, ok := sh.m[certFP]; ok {
		delete(sh.m, certFP)
		for i, k := range sh.order {
			if k == certFP {
				sh.order = append(sh.order[:i:i], sh.order[i+1:]...)
				break
			}
		}
		vc.stats.Evicted(1)
	}
	sh.mu.Unlock()
}

// RevokeSigner blacklists every certificate signed by the key with the
// given fingerprint and drops all cached entries by that signer.
func (vc *VerifyCache) RevokeSigner(signerFP string) {
	vc.revMu.Lock()
	vc.revokedSigners[signerFP] = struct{}{}
	vc.revMu.Unlock()
	vc.gen.Add(1)
	for i := range vc.shards {
		sh := &vc.shards[i]
		sh.mu.Lock()
		kept := sh.order[:0]
		dropped := 0
		for _, k := range sh.order {
			if e, ok := sh.m[k]; ok && e.signer == signerFP {
				delete(sh.m, k)
				dropped++
				continue
			}
			kept = append(kept, k)
		}
		sh.order = kept
		sh.mu.Unlock()
		if dropped > 0 {
			vc.stats.Evicted(uint64(dropped))
		}
	}
}

// Len reports the number of cached verifications.
func (vc *VerifyCache) Len() int {
	n := 0
	for i := range vc.shards {
		sh := &vc.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats reports lookups, hits, misses, and evictions in the shape shared
// with the guard and kernel caches.
func (vc *VerifyCache) Stats() cachestat.Stats { return vc.stats.Snapshot() }
