// Package kernel simulates the Nexus microkernel: isolated protection
// domains (IPDs), IPC ports with interpositioning, labelstores, goal
// formulas with guard upcalls, the kernel decision cache, authorities, and
// the TPM-rooted boot sequence.
//
// The simulation replaces the hardware privilege boundary with a package
// boundary: simulated processes interact with system state only through
// Kernel methods, exactly as Nexus processes interact only through system
// calls. Costs become wall-clock durations rather than cycle counts, but the
// layering that the paper measures — marshaling for interpositioning,
// decision-cache hits versus guard upcalls, user-level servers behind IPC —
// is all real code on the hot path.
package kernel

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/disk"
	"repro/internal/introspect"
	"repro/internal/ledger"
	"repro/internal/nal"
	"repro/internal/tpm"
)

// Errors returned by kernel operations.
var (
	ErrNoSuchProcess = errors.New("kernel: no such process")
	ErrNoSuchPort    = errors.New("kernel: no such IPC port")
	ErrDenied        = errors.New("kernel: authorization denied")
	ErrNoGuard       = errors.New("kernel: no guard bound to goal")
	ErrBootIntegrity = errors.New("kernel: boot integrity check failed")
	ErrBadArgument   = errors.New("kernel: bad argument")
)

// sealedNKFile is the disk file holding the Nexus key sealed to the PCRs.
const sealedNKFile = "/nexus/nk.sealed"

// Kernel is a running Nexus instance.
//
// There is deliberately no kernel-wide mutex: each piece of kernel state is
// its own independently synchronized registry with an explicit invariant
// (see DESIGN.md "Kernel dispatch"), so the warm Call/syscall path crosses
// the kernel boundary without serializing against unrelated control-plane
// work.
type Kernel struct {
	TPM  *tpm.TPM
	Disk *disk.Disk

	// NK is the Nexus key, generated on first boot and sealed to the PCR
	// state of the genuine kernel; it identifies this installation. It is
	// Ed25519: everything the kernel signs at runtime (node handshakes,
	// label certificates) uses it, leaving RSA only for the TPM
	// endorsement hierarchy, which is what real TPM silicon speaks.
	NK ed25519.PrivateKey
	// NBK is the Nexus boot key identifying this unique boot.
	NBK ed25519.PrivateKey
	// BootID is the hex hash of the public NBK.
	BootID string
	// nkFP is the cached fingerprint of NK's public half.
	nkFP string

	// Prin is the kernel's principal: key:<NK-fingerprint>.<boot-id>.
	// Every process principal is a subprincipal of it (§2.4).
	Prin nal.Principal

	procs   *procTable    // pid → process
	ports   *portRegistry // port id → port, interposition chains, owner index
	goals   *goalStore    // (op, obj) → goal entry, object owners
	dcache  *DecisionCache
	proofs  *proofStore     // (subj, op, obj) → registered proof
	chans   *chanTable      // channel-capability grants
	handles *handleRegistry // pid → capability handle table (Session ABI)

	// flags packs the global toggles (authorization, interposition, channel
	// enforcement) into one word the dispatch pipeline loads atomically.
	flags atomic.Uint32
	// defGuard is the default guard consulted on decision-cache misses when
	// the goal names none; swapped wholesale with an atomic pointer.
	defGuard atomic.Pointer[Guard]
	// guardUpcalls counts kernel → guard boundary crossings, lock-free.
	guardUpcalls atomic.Uint64

	// certs memoizes certificate verification (signature check plus
	// says-extraction) by fingerprint, shared by labelstore imports and
	// guards resolving certificate credentials; revocation goes through it.
	certs *cert.VerifyCache

	// audit is the hash-chained record of authorization decisions,
	// exported at /proc/kernel/audit. Only the decision (cache-miss) path
	// writes it; warm cached requests replay already-recorded decisions.
	audit *AuditLog

	// led is the durable ledger behind the audit log, when attached
	// (AttachLedger); decisions are forwarded via the audit log's sink.
	led atomic.Pointer[ledger.Ledger]

	// metrics is the kernel-wide observability plane (counters and latency
	// histograms, exported at /proc/kernel/metrics). Always non-nil;
	// instrumentation lives only on miss and transport paths, never on the
	// warm cached syscall path.
	metrics *kernelMetrics

	authMu  sync.RWMutex
	auth    map[string]*Authority
	Introsp *introspect.Registry

	startTime time.Time
	nkMu      sync.Mutex // guards nkCert memoization only
	nkCert    *cert.Certificate
}

// Options configures Boot.
type Options struct {
	// Image is the kernel image measured into the TPM; different images
	// produce different PCR state and therefore different trust domains.
	Image []byte
	// Authorization enables goal checking on IPC (default on).
	NoAuthorization bool
	// NoInterposition disables the redirector and parameter marshaling,
	// the "Nexus bare" configuration of Table 1.
	NoInterposition bool
	// DecisionCacheRegions overrides the subregion count (0 = default).
	DecisionCacheRegions int
	// DisableDecisionCache turns the kernel decision cache off, for the
	// dashed-bar configurations of Figure 4.
	DisableDecisionCache bool
}

// Boot runs the §3.4 boot sequence against the given TPM and disk: measure
// firmware, boot loader, and kernel image into PCRs; on first boot take
// ownership and generate the sealed Nexus key; on later boots unseal it —
// which fails for a modified kernel image. It returns the running kernel.
func Boot(t *tpm.TPM, d *disk.Disk, opts Options) (*Kernel, error) {
	t.Startup()
	if _, err := t.Extend(tpm.PCRFirmware, []byte("nexus-firmware-v1")); err != nil {
		return nil, err
	}
	if _, err := t.Extend(tpm.PCRBootLoader, []byte("nexus-bootloader-v1")); err != nil {
		return nil, err
	}
	image := opts.Image
	if image == nil {
		image = []byte("nexus-kernel-v1")
	}
	if _, err := t.Extend(tpm.PCRKernel, image); err != nil {
		return nil, err
	}
	bound := []tpm.PCRIndex{tpm.PCRFirmware, tpm.PCRBootLoader, tpm.PCRKernel}

	k := &Kernel{
		TPM:       t,
		Disk:      d,
		procs:     newProcTable(),
		ports:     newPortRegistry(),
		proofs:    newProofStore(),
		chans:     newChanTable(),
		handles:   newHandleRegistry(),
		certs:     cert.NewVerifyCache(),
		audit:     newAuditLog(),
		metrics:   &kernelMetrics{},
		auth:      map[string]*Authority{},
		Introsp:   introspect.NewRegistry(),
		startTime: time.Now(),
	}
	k.setFlag(flagAuthz, !opts.NoAuthorization)
	k.setFlag(flagInterp, !opts.NoInterposition)
	regions := opts.DecisionCacheRegions
	if regions == 0 {
		regions = 64
	}
	k.dcache = NewDecisionCache(regions)
	if opts.DisableDecisionCache {
		k.dcache.Disable()
	}
	k.goals = newGoalStore()

	// Acquire the Nexus key: first boot generates and seals it; later boots
	// unseal. A modified kernel fails the unseal (PCR mismatch) and, since
	// taking ownership twice is impossible, cannot masquerade.
	if !t.Owned() {
		if err := t.TakeOwnership(bound); err != nil {
			return nil, fmt.Errorf("kernel: taking TPM ownership: %w", err)
		}
		_, nk, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("kernel: generating NK: %w", err)
		}
		blob, err := t.Seal(marshalKey(nk), bound)
		if err != nil {
			return nil, fmt.Errorf("kernel: sealing NK: %w", err)
		}
		der, err := sealedBlobMarshal(blob)
		if err != nil {
			return nil, err
		}
		if err := d.Write(sealedNKFile, der); err != nil {
			return nil, fmt.Errorf("kernel: persisting sealed NK: %w", err)
		}
		k.NK = nk
	} else {
		der, err := d.Read(sealedNKFile)
		if err != nil {
			return nil, fmt.Errorf("%w: sealed NK missing", ErrBootIntegrity)
		}
		blob, err := sealedBlobUnmarshal(der)
		if err != nil {
			return nil, fmt.Errorf("%w: sealed NK corrupt", ErrBootIntegrity)
		}
		raw, err := t.Unseal(blob)
		if err != nil {
			return nil, fmt.Errorf("%w: cannot unseal NK (%v)", ErrBootIntegrity, err)
		}
		nk, err := unmarshalKey(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: NK decode (%v)", ErrBootIntegrity, err)
		}
		k.NK = nk
	}

	// The boot key identifies this unique boot instantiation.
	_, nbk, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("kernel: generating NBK: %w", err)
	}
	k.NBK = nbk
	sum := sha1.Sum(nbk.Public().(ed25519.PublicKey))
	k.BootID = hex.EncodeToString(sum[:8])
	k.nkFP = cert.FingerprintEd25519(k.NK.Public().(ed25519.PublicKey))
	k.Prin = nal.SubOf(nal.Key(k.nkFP), k.BootID)

	k.publishIntrospection()
	return k, nil
}

// SetGuard installs the system guard consulted on decision-cache misses.
func (k *Kernel) SetGuard(g Guard) {
	if g == nil {
		k.defGuard.Store(nil)
		return
	}
	k.defGuard.Store(&g)
}

// defaultGuard returns the installed system guard, or nil.
func (k *Kernel) defaultGuard() Guard {
	if p := k.defGuard.Load(); p != nil {
		return *p
	}
	return nil
}

// CertCache exposes the kernel's credential pre-verification cache, for
// guards resolving certificate credentials and for revocation.
func (k *Kernel) CertCache() *cert.VerifyCache { return k.certs }

// credGen returns the kernel's credential generation: the labels that
// have left a labelstore (procTable.labelGen) plus the revocations in the
// verify cache (cert.VerifyCache.Generation). Both only grow, so the sum
// moves whenever either does. A decision cached on labelstore references
// or certificates holds only while the generation it was decided under is
// current. Adding a label never moves it: pids and label handles are never
// reused and labels are immutable, so a reference either resolves to the
// formula it named or fails.
func (k *Kernel) credGen() uint64 { return k.procs.labelGen.Load() + k.certs.Generation() }

// NKFingerprint returns the fingerprint of this kernel's Nexus key,
// computed once at boot. It is the key component of the kernel principal.
func (k *Kernel) NKFingerprint() string { return k.nkFP }

// SetAuthorization toggles goal checking (Figure 4 case "system call").
func (k *Kernel) SetAuthorization(on bool) { k.setFlag(flagAuthz, on) }

// SetInterposition toggles the redirector and marshaling (Table 1 bare).
func (k *Kernel) SetInterposition(on bool) { k.setFlag(flagInterp, on) }

// Process is an isolated protection domain (IPD).
type Process struct {
	PID    int
	Parent int
	// Prin is kernel.ipd.<pid>, a subprincipal of the kernel (§2.4).
	Prin nal.Principal
	// Hash is the hex SHA-1 launch-time hash of the program image.
	Hash string
	// Labels is the process's default labelstore.
	Labels *Labelstore

	kernel  *Kernel
	prinStr string // canonical form of Prin, precomputed off the hot path
	exited  atomic.Bool
}

// PrinString returns the canonical form of the process principal, computed
// once at creation so authorization checks do not re-serialize it.
func (p *Process) PrinString() string { return p.prinStr }

// CreateProcess launches a new IPD from the given program image. parent is 0
// for root processes.
func (k *Kernel) CreateProcess(parent int, image []byte) (*Process, error) {
	if parent != 0 {
		if _, ok := k.procs.get(parent); !ok {
			return nil, ErrNoSuchProcess
		}
	}
	pid := k.procs.alloc()
	sum := sha1.Sum(image)
	prin := nal.SubChain(k.Prin, "ipd", fmt.Sprint(pid))
	p := &Process{
		PID:    pid,
		Parent: parent,
		Prin:   prin,
		Hash:   hex.EncodeToString(sum[:]),
		kernel: k,
		// String, not KeyOfPrin: per-process principals are unique per
		// PID, and interning them would fill the global table with
		// dead entries as processes churn.
		prinStr: prin.String(),
	}
	p.Labels = newLabelstore(p)
	k.procs.insert(p)
	return p, nil
}

// createRemoteProxy registers a proxy IPD standing in for a process on a
// peer kernel: it occupies a local pid — so registries, channel grants,
// labelstores, proof registration, and teardown work unchanged — but
// carries the remote process's *global* principal (key:<NK>.<boot>.ipd.N),
// so authorization, labels, and audit records attribute cross-node
// activity to the real remote identity, never to a local subprincipal of
// this kernel. Only the transport layer creates these, after the peer's
// identity has been verified.
func (k *Kernel) createRemoteProxy(prin nal.Principal) *Process {
	pid := k.procs.alloc()
	sum := sha1.Sum([]byte(prin.String()))
	p := &Process{
		PID:     pid,
		Prin:    prin,
		Hash:    hex.EncodeToString(sum[:]),
		kernel:  k,
		prinStr: prin.String(),
	}
	p.Labels = newLabelstore(p)
	k.procs.insert(p)
	return p
}

// Exit terminates the process: it leaves the process table, its ports are
// closed (via the per-owner index, not a registry scan), grants other
// processes held to those ports are revoked, its own channel capabilities
// are dropped, authorities bound to its ports are retracted, and its
// capability handle table is drained — no handle outlives its process,
// whichever exit path ran. Its labels leave with it: no reference to
// them resolves once it is gone from the table, so the credential
// generation moves. It moves even for a process holding no labels, since
// a Transfer into its store can race the exit.
func (p *Process) Exit() {
	if !p.exited.CompareAndSwap(false, true) {
		return
	}
	k := p.kernel
	k.procs.remove(p.PID)
	k.procs.labelGen.Add(1)
	dead := k.ports.dropOwner(p.PID)
	for _, id := range dead {
		k.chans.dropPort(id)
	}
	k.dropAuthorities(dead)
	k.chans.dropPID(p.PID)
	k.handles.dropPID(p.PID)
}

// Exited reports whether the process has terminated.
func (p *Process) Exited() bool { return p.exited.Load() }

// Lookup returns a live process by pid.
func (k *Kernel) Lookup(pid int) (*Process, bool) {
	return k.procs.get(pid)
}

// Processes returns the live PIDs in unspecified order.
func (k *Kernel) Processes() []int { return k.procs.pids() }

// GetPPID is the getppid system call.
func (p *Process) GetPPID() (int, error) {
	var ppid int
	err := p.kernel.syscall(p, "getppid", "proc:"+fmt.Sprint(p.PID), nil, func() error {
		ppid = p.Parent
		return nil
	})
	return ppid, err
}

// GetTimeOfDay is the gettimeofday system call.
func (p *Process) GetTimeOfDay() (time.Time, error) {
	var ts time.Time
	err := p.kernel.syscall(p, "gettimeofday", "clock", nil, func() error {
		ts = time.Now()
		return nil
	})
	return ts, err
}

// Yield is the scheduler yield system call.
func (p *Process) Yield() error {
	return p.kernel.syscall(p, "yield", "cpu", nil, func() error { return nil })
}

// Null is the empty system call used to measure invocation overhead.
func (p *Process) Null() error {
	return p.kernel.syscall(p, "null", "null", nil, func() error { return nil })
}

// publishIntrospection mounts the kernel's live state under /proc (§3.1).
// Every value reads the owning registry directly — none takes a kernel-wide
// lock, so introspection cannot stall the dispatch pipeline.
func (k *Kernel) publishIntrospection() {
	k.Introsp.Publish("/proc/kernel/bootid", k.Prin, func() string { return k.BootID })
	k.Introsp.Publish("/proc/kernel/uptime", k.Prin, func() string {
		return time.Since(k.startTime).String()
	})
	k.Introsp.Publish("/proc/kernel/nprocs", k.Prin, func() string {
		return fmt.Sprint(k.procs.len())
	})
	k.Introsp.Publish("/proc/kernel/nports", k.Prin, func() string {
		return fmt.Sprint(k.ports.len())
	})
	k.Introsp.Publish("/proc/kernel/guard_upcalls", k.Prin, func() string {
		return fmt.Sprint(k.guardUpcalls.Load())
	})
	k.Introsp.Publish("/proc/kernel/audit", k.Prin, func() string {
		return k.audit.summary()
	})
	k.Introsp.Publish("/proc/kernel/dcache", k.Prin, func() string {
		s := k.dcache.StatsSnapshot()
		return fmt.Sprintf("lookups=%d hits=%d misses=%d evictions=%d",
			s.Lookups, s.Hits, s.Misses, s.Evictions)
	})
	k.Introsp.Publish("/proc/kernel/metrics", k.Prin, func() string {
		s := k.Metrics()
		return s.render()
	})
}
