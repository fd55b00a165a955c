package kernel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/nal"
)

// ErrNoSuchLabel is returned for stale or foreign label handles.
var ErrNoSuchLabel = errors.New("kernel: no such label")

// Label is an attributable statement held in a labelstore. Because the say
// system call travels over a secure channel from the process to the kernel,
// the label needs no signature while it stays inside this Nexus instance
// (§2.3); Formula is always of the form "speaker says S".
type Label struct {
	Handle  int
	Speaker nal.Principal
	Formula nal.Formula

	// id is Formula's hash-cons handle, interned where the label is
	// created (0 if the cons tables are saturated). A label is immutable
	// and handles are never reused, so guards presenting the label as a
	// credential read it instead of re-interning the formula per check.
	id nal.FormulaID

	// ext memoizes the externalized (signed) form. Labels are immutable
	// once issued and valid indefinitely (§2.7), so the certificate —
	// including its Issued timestamp — is minted at most once per label;
	// re-externalizing is then a pointer load. A stable certificate is also
	// what makes downstream caches work: the verifier's VerifyCache and the
	// per-connection re-attestation tables key on the certificate
	// fingerprint, which would change with every fresh Issued time.
	// Guarded by the store's mu.
	ext *ExternalLabel
}

// ID returns the hash-cons handle of the label's formula, or 0 if the
// formula could not be interned (cons saturation).
func (l *Label) ID() nal.FormulaID { return l.id }

// Labelstore holds the labels issued by (or transferred to) one process.
type Labelstore struct {
	mu     sync.RWMutex
	owner  *Process
	next   int
	labels map[int]*Label
}

func newLabelstore(owner *Process) *Labelstore {
	return &Labelstore{owner: owner, next: 1, labels: map[int]*Label{}}
}

// Say implements the say system call: the process utters statement, which
// is recorded as "caller says statement". The statement may not itself be
// ill-formed, but its predicates are uninterpreted — the kernel imposes no
// semantic restrictions (§2.2).
func (ls *Labelstore) Say(statement string) (*Label, error) {
	f, err := nal.Parse(statement)
	if err != nil {
		return nil, fmt.Errorf("kernel: say: %w", err)
	}
	return ls.SayFormula(f)
}

// SayFormula is Say for pre-parsed formulas.
func (ls *Labelstore) SayFormula(f nal.Formula) (*Label, error) {
	if !nal.Ground(f) {
		return nil, fmt.Errorf("kernel: say: statement must be ground")
	}
	said := nal.SaysWrap(ls.owner.Prin, f)
	id, _ := nal.IDOf(said)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l := &Label{
		Handle:  ls.next,
		Speaker: ls.owner.Prin,
		Formula: said,
		id:      id,
	}
	ls.next++
	ls.labels[l.Handle] = l
	return l, nil
}

// insertSystem deposits a kernel-issued label (e.g. an IPC binding or an
// ownership grant) into the store.
func (ls *Labelstore) insertSystem(f nal.Formula) *Label {
	id, _ := nal.IDOf(f)
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l := &Label{Handle: ls.next, Speaker: ls.owner.kernel.Prin, Formula: f, id: id}
	ls.next++
	ls.labels[l.Handle] = l
	return l
}

// Get returns a label by handle.
func (ls *Labelstore) Get(handle int) (*Label, error) {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	l, ok := ls.labels[handle]
	if !ok {
		return nil, ErrNoSuchLabel
	}
	return l, nil
}

// Delete removes a label. Once it returns, no decision cached on a
// reference to the label is served again: the credential generation has
// moved (Kernel.credGen).
func (ls *Labelstore) Delete(handle int) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if _, ok := ls.labels[handle]; !ok {
		return ErrNoSuchLabel
	}
	delete(ls.labels, handle)
	ls.owner.kernel.procs.labelGen.Add(1)
	return nil
}

// Transfer moves a label into another labelstore, returning the new
// handle. The formula (including its original speaker) is unchanged.
// The source handle stops resolving as Delete's does.
// Session-level code transfers by pid via Session.TransferLabel.
func (ls *Labelstore) Transfer(handle int, dst *Labelstore) (*Label, error) {
	ls.mu.Lock()
	l, ok := ls.labels[handle]
	if ok {
		delete(ls.labels, handle)
	}
	ls.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchLabel
	}
	ls.owner.kernel.procs.labelGen.Add(1)
	dst.mu.Lock()
	defer dst.mu.Unlock()
	nl := &Label{Handle: dst.next, Speaker: l.Speaker, Formula: l.Formula, id: l.id}
	dst.next++
	dst.labels[nl.Handle] = nl
	return nl, nil
}

// All returns the formulas of every label in the store; guards treat these
// as the credential set reachable from the subject.
func (ls *Labelstore) All() []nal.Formula {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	out := make([]nal.Formula, 0, len(ls.labels))
	for _, l := range ls.labels {
		out = append(out, l.Formula)
	}
	return out
}

// Len reports the number of labels held.
func (ls *Labelstore) Len() int {
	ls.mu.RLock()
	defer ls.mu.RUnlock()
	return len(ls.labels)
}

// ExternalLabel is a label externalized to the X.509-style format of §2.4:
// the label statement signed by the Nexus key, plus the TPM's endorsement of
// the Nexus key. Informally, "TPM says kernel says process says S".
type ExternalLabel struct {
	// LabelCert is signed by NK; its Speaker is the in-kernel principal
	// suffix (bootid.ipd.N or similar) and its Formula the statement body.
	LabelCert *cert.Certificate
	// NKCert is signed by the TPM's EK and states that NK speaks for the
	// measured Nexus on this platform.
	NKCert *cert.Certificate
}

// Externalize converts a label into transferable certificate form, signed
// with the kernel's Ed25519 Nexus key. The signed form is memoized on the
// label: a label is immutable, so the first externalization fixes its
// certificate and later calls return it without touching the signer.
func (ls *Labelstore) Externalize(handle int) (*ExternalLabel, error) {
	ls.mu.RLock()
	l, ok := ls.labels[handle]
	var ext *ExternalLabel
	if ok {
		ext = l.ext
	}
	ls.mu.RUnlock()
	if !ok {
		return nil, ErrNoSuchLabel
	}
	if ext != nil {
		return ext, nil
	}
	k := ls.owner.kernel
	labelCert, err := cert.SignEd25519(cert.Statement{
		Speaker: l.Formula.(nal.Says).P.String(),
		Formula: l.Formula.(nal.Says).F.String(),
		Serial:  int64(handle),
		Issued:  time.Now(),
	}, k.NK)
	if err != nil {
		return nil, fmt.Errorf("kernel: externalize: %w", err)
	}
	nkCert, err := k.nkEndorsement()
	if err != nil {
		return nil, err
	}
	ext = &ExternalLabel{LabelCert: labelCert, NKCert: nkCert}
	ls.mu.Lock()
	// Recheck under the write lock: the label may have raced a Delete (the
	// signed form is then simply discarded) or another externalization (the
	// first one wins so every caller sees one canonical certificate).
	if cur, still := ls.labels[handle]; still {
		if cur.ext != nil {
			ext = cur.ext
		} else {
			cur.ext = ext
		}
	}
	ls.mu.Unlock()
	return ext, nil
}

// Import verifies an external label and deposits the corresponding
// key-attributed formula into the store. The resulting label reads
// "key:<NK> says <speaker> says S"; proofs connect key:<NK> to a trusted
// Nexus via the NK endorsement. Verification goes through the kernel's
// pre-verification cache, so re-importing a known certificate (and any
// guard resolving it as a credential) skips the RSA check; a revoked
// certificate fails here regardless of cache state.
func (ls *Labelstore) Import(ext *ExternalLabel) (*Label, error) {
	f, id, err := ls.owner.kernel.certs.Label(ext.LabelCert)
	if err != nil {
		return nil, fmt.Errorf("kernel: import: %w", err)
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l := &Label{Handle: ls.next, Speaker: ls.owner.kernel.Prin, Formula: f, id: id}
	ls.next++
	ls.labels[l.Handle] = l
	return l, nil
}
