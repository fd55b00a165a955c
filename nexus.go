// Package nexus is the public API of the logical-attestation library: a Go
// reproduction of "Logical Attestation: An Authorization Architecture for
// Trustworthy Computing" (Sirer et al., SOSP 2011).
//
// The package re-exports the stable surface of the internal subsystems:
//
//   - NAL formulas and proofs (ParseFormula, Derive, CheckProof)
//   - the simulated platform (NewTPM, NewDisk, Boot)
//   - the typed user↔kernel ABI: Session, capability handles (Cap), batched
//     submission (Session.Submit), and the errno-style Error taxonomy
//   - the generic guard (NewGuard)
//   - attested storage (InitStorage, RecoverStorage, regions, VKEYs)
//
// A minimal end-to-end flow:
//
//	t, _ := nexus.NewTPM(0)
//	k, _ := nexus.Boot(t, nexus.NewDisk(), nexus.Options{})
//	k.SetGuard(nexus.NewGuard(k))
//	alice, _ := k.NewSession([]byte("alice-app"))
//	label, _ := alice.Say("wantsAccess")
//	... alice.SetGoal / alice.SetProof / alice.Call(cap, msg) ...
//
// User-level code holds Sessions and Caps only; *Process and *Port stay
// behind the kernel package boundary, which models the privilege boundary.
// See examples/ for complete programs and DESIGN.md for the system map.
package nexus

import (
	"repro/internal/cachestat"
	"repro/internal/cert"
	"repro/internal/disk"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/ssr"
	"repro/internal/tpm"
)

// Core platform types.
type (
	// TPM is the simulated secure coprocessor.
	TPM = tpm.TPM
	// Disk is the simulated secondary storage device.
	Disk = disk.Disk
	// Kernel is a running Nexus instance.
	Kernel = kernel.Kernel
	// Process is an isolated protection domain. Platform-level code
	// (benchmarks, ablation drivers) may hold one; user-level code works
	// through Session instead and never touches a *Process.
	Process = kernel.Process
	// Options configures Boot.
	Options = kernel.Options
	// Msg is an IPC request.
	Msg = kernel.Msg
	// Port is an IPC endpoint (platform-level; the ABI names ports by
	// integer id and capability handle, never by pointer).
	Port = kernel.Port
	// Label is an attributable statement in a labelstore.
	Label = kernel.Label
	// Credential accompanies a proof (inline or labelstore reference).
	Credential = kernel.Credential
	// Authority answers live queries about dynamic state.
	Authority = kernel.Authority
	// Guard decides authorization requests.
	Guard = guard.Generic
	// CacheStats is the hit/miss/eviction snapshot shared by the guard
	// proof cache and the kernel decision cache.
	CacheStats = cachestat.Stats
)

// ABI types: the typed Session surface user-level code programs against.
// A Session pairs a process with its capability handle table; Caps are the
// only names user code holds for kernel objects, and the errno-style Error
// taxonomy replaces string matching on failures.
type (
	// Session is a process's typed handle on the kernel ABI.
	Session = kernel.Session
	// Cap is an opaque per-process capability handle.
	Cap = kernel.Cap
	// Caller identifies the peer process in handlers and monitors.
	Caller = kernel.Caller
	// Sub is one submission-queue entry for Session.Submit.
	Sub = kernel.Sub
	// Completion is the result of one submitted operation.
	Completion = kernel.Completion
	// SubQueue is a reusable submission/completion queue.
	SubQueue = kernel.SubQueue
	// Error is the structured ABI error (errno class + operation + detail).
	Error = kernel.Error
	// Errno is the ABI error class.
	Errno = kernel.Errno
)

// Errno classes of the ABI error taxonomy.
const (
	EINVAL     = kernel.EINVAL
	ESRCH      = kernel.ESRCH
	ENOENT     = kernel.ENOENT
	EBADF      = kernel.EBADF
	EACCES     = kernel.EACCES
	ENOGUARD   = kernel.ENOGUARD
	EINTEGRITY = kernel.EINTEGRITY
	ENOLABEL   = kernel.ENOLABEL
	ENOAUTH    = kernel.ENOAUTH
	ECANCELED  = kernel.ECANCELED
)

// CapSyscall is the pseudo-handle for the kernel system-call channel.
const CapSyscall = kernel.CapSyscall

// Sentinel errors of the ABI; typed *Error values unwrap to these, so both
// errors.Is and ErrnoOf work on anything the kernel returns.
var (
	ErrDenied        = kernel.ErrDenied
	ErrNoSuchPort    = kernel.ErrNoSuchPort
	ErrNoSuchProcess = kernel.ErrNoSuchProcess
	ErrBadArgument   = kernel.ErrBadArgument
	ErrBadHandle     = kernel.ErrBadHandle
	ErrNoGuard       = kernel.ErrNoGuard
	ErrCanceled      = kernel.ErrCanceled
)

// ErrnoOf extracts the errno class from any error crossing the ABI.
func ErrnoOf(err error) Errno { return kernel.ErrnoOf(err) }

// Dispatch-pipeline types. Every kernel entry — user IPC and kernel system
// calls alike — runs the same pipeline (resolve → channel check → authorize
// → interpose/marshal → invoke → unwind); these are the types reference
// monitors and guards plug into it with.
type (
	// Handler implements the server side of a port.
	Handler = kernel.Handler
	// Interposer is a reference monitor bound to an IPC channel.
	Interposer = kernel.Interposer
	// FuncMonitor adapts plain functions to the Interposer interface.
	FuncMonitor = kernel.FuncMonitor
	// Verdict is a reference monitor's decision on an intercepted call.
	Verdict = kernel.Verdict
	// GuardRequest carries everything a guard needs for one decision.
	GuardRequest = kernel.GuardRequest
	// GuardDecision is a guard's answer, including cacheability.
	GuardDecision = kernel.GuardDecision
	// LabelRef names a label held in some process's labelstore.
	LabelRef = kernel.LabelRef
)

// Reference-monitor verdicts.
const (
	VerdictAllow = kernel.VerdictAllow
	VerdictBlock = kernel.VerdictBlock
)

// Logic types.
type (
	// Formula is a NAL formula.
	Formula = nal.Formula
	// Principal is a NAL principal.
	Principal = nal.Principal
	// FormulaID is a stable hash-cons handle: two formulas are equal
	// exactly when their IDs are equal.
	FormulaID = nal.FormulaID
	// Proof is an explicit NAL derivation.
	Proof = proof.Proof
	// CompiledProof is a proof lowered to hash-consed formula IDs; checking
	// it performs no parsing and no structural comparison.
	CompiledProof = proof.Compiled
	// Deriver constructs proofs heuristically on the client side.
	Deriver = proof.Deriver
	// ProofEnv supplies credentials and authorities to the checker.
	ProofEnv = proof.Env
	// Certificate is an externalized, signed credential (§2.4).
	Certificate = cert.Certificate
	// CertVerifyCache pre-verifies certificates by fingerprint and carries
	// revocation; each kernel owns one (Kernel.CertCache).
	CertVerifyCache = cert.VerifyCache
)

// Distributed attestation plane: the wire codec, inter-kernel transport,
// and remote credential exchange. A Node attaches a kernel to a transport;
// a verified Peer exposes remote services that Sessions address through
// capability handles, with externalized labels crossing as TPM-rooted
// certificates.
type (
	// Node is a kernel's endpoint on the attestation plane.
	Node = kernel.Node
	// Peer is a verified connection to a remote node.
	Peer = kernel.Peer
	// Transport is a connection factory (loopback or TCP).
	Transport = kernel.Transport
	// Conn is a reliable, ordered, framed byte pipe between nodes.
	Conn = kernel.Conn
	// Listener accepts inbound transport connections.
	Listener = kernel.Listener
	// LoopbackTransport is the in-memory transport backend.
	LoopbackTransport = kernel.LoopbackTransport
	// TCPTransport is the TCP transport backend.
	TCPTransport = kernel.TCPTransport
	// TransportConfig sizes a node's transport runtime.
	TransportConfig = kernel.TransportConfig
	// RemoteCred is one credential in a remote proof registration.
	RemoteCred = kernel.RemoteCred
	// RemoteLabel names a label deposited in a proxy labelstore on a peer.
	RemoteLabel = kernel.RemoteLabel
	// ExternalLabel is a label externalized to certificate form (§2.4).
	ExternalLabel = kernel.ExternalLabel
	// WireEncoder is the egress half of a connection's formula remap state.
	WireEncoder = nal.WireEncoder
	// WireDecoder is the ingress half: warm decode is an intern lookup.
	WireDecoder = nal.WireDecoder
	// AuditLog is the kernel's hash-chained record of guard verdicts.
	AuditLog = kernel.AuditLog
	// AuditRecord is one authorization decision in the audit log.
	AuditRecord = kernel.AuditRecord
)

// NewNode attaches a transport endpoint to a kernel.
func NewNode(k *Kernel) *Node { return kernel.NewNode(k) }

// NewNodeWithConfig attaches a transport endpoint with an explicit runtime
// configuration; zero fields select their defaults.
func NewNodeWithConfig(k *Kernel, cfg TransportConfig) *Node {
	return kernel.NewNodeWithConfig(k, cfg)
}

// NewLoopbackTransport creates an in-memory transport.
func NewLoopbackTransport() *LoopbackTransport { return kernel.NewLoopbackTransport() }

// VerifyAuditChain checks an audit record sequence against the retained
// window's base seq and its base and head hashes.
func VerifyAuditChain(recs []AuditRecord, baseSeq uint64, base, head [32]byte) error {
	return kernel.VerifyAuditChain(recs, baseSeq, base, head)
}

// Storage types.
type (
	// Storage is the VDIR manager multiplexing the TPM's DIRs.
	Storage = ssr.Manager
	// Region is a secure storage region.
	Region = ssr.Region
	// KeyStore manages VKEYs.
	KeyStore = ssr.KeyStore
)

// NewTPM manufactures a simulated TPM; keyBits of 0 selects the default.
func NewTPM(keyBits int) (*TPM, error) { return tpm.Manufacture(keyBits) }

// NewDisk creates an empty simulated disk.
func NewDisk() *Disk { return disk.New() }

// Boot runs the measured Nexus boot sequence.
func Boot(t *TPM, d *Disk, opts Options) (*Kernel, error) { return kernel.Boot(t, d, opts) }

// NewGuard creates the generic guard for a kernel.
func NewGuard(k *Kernel) *Guard { return guard.New(k) }

// ParseFormula parses NAL concrete syntax.
func ParseFormula(src string) (Formula, error) { return nal.Parse(src) }

// MustFormula is ParseFormula that panics on error, for literals.
func MustFormula(src string) Formula { return nal.MustParse(src) }

// ParsePrincipal parses a principal expression.
func ParsePrincipal(src string) (Principal, error) { return nal.ParsePrincipal(src) }

// FormulaKey returns the interned canonical key of a formula — identical
// text to f.String(), memoized so repeated calls for structurally equal
// formulas do not re-serialize the AST. Structurally equal formulas always
// share one key (Time terms render in UTC, so equality and printing
// agree). Use it when keying maps on formulas.
func FormulaKey(f Formula) string { return nal.KeyOf(f) }

// CheckProof validates a proof against a goal. The proof is compiled to
// hash-consed formula IDs on first check (and cached on the Proof), so
// repeated checks compare integers, not ASTs.
func CheckProof(p *Proof, goal Formula, env *ProofEnv) (proof.Result, error) {
	return proof.Check(p, goal, env)
}

// CompileProof lowers a proof to its compiled representation explicitly
// (CheckProof does this lazily).
func CompileProof(p *Proof) (*CompiledProof, error) { return proof.Compile(p) }

// FormulaIDOf interns a formula in the process-wide hash-cons DAG and
// returns its stable handle; ok is false only when the (capped) table is
// saturated. Equal formulas always receive equal IDs.
func FormulaIDOf(f Formula) (FormulaID, bool) { return nal.IDOf(f) }

// ParseProof reads the textual proof exchange format. Byte-identical proof
// text is memoized: re-parsing returns the same immutable *Proof with its
// compiled form and fingerprint already warm.
func ParseProof(src string) (*Proof, error) { return proof.Parse(src) }

// InitStorage initializes attested storage on first boot.
func InitStorage(t *TPM, d *Disk) (*Storage, error) { return ssr.Init(t, d) }

// RecoverStorage recovers attested storage after a reboot, detecting
// tampering and replay.
func RecoverStorage(t *TPM, d *Disk) (*Storage, error) { return ssr.Recover(t, d) }

// NewKeyStore creates a VKEY store.
func NewKeyStore() *KeyStore { return ssr.NewKeyStore() }
