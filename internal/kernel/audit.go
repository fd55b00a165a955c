package kernel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
)

// Decision audit log: an append-only, hash-chained record of authorization
// *decisions* — guard verdicts, default-policy outcomes, and no-guard
// failures. Each record's hash covers its content and the previous
// record's hash, so any in-place tampering (edit, deletion, reordering,
// truncation-and-regrowth) breaks the chain against the published head.
//
// Only the decision path writes here: a warm request served from the
// decision cache replays a decision that was recorded when it was made, so
// the cached fast path stays untouched (and allocation-free). The log is
// bounded: when it reaches its cap the older half is evicted and the chain
// base advances to the last evicted record's hash, keeping verification
// sound over the retained window while the head keeps covering the entire
// history ever appended.
//
// The log's mutex is a leaf: nothing else is acquired while it is held.

// ErrAuditChain reports a break in the audit log's hash chain.
var ErrAuditChain = errors.New("kernel: audit chain verification failed")

// AuditRecord is one authorization decision.
type AuditRecord struct {
	Seq    uint64
	Subj   string
	Op     string
	Obj    string
	Allow  bool
	Reason string
	// Prev is the chain hash before this record; Hash covers Prev and
	// every field above.
	Prev [32]byte
	Hash [32]byte
}

// auditHash computes a record's chain hash from its predecessor's. The
// hashed bytes are laid out in a stack buffer and digested in one call, so
// a record that fits the buffer hashes without allocating.
func auditHash(prev [32]byte, seq uint64, subj, op, obj string, allow bool, reason string) [32]byte {
	var buf [512]byte // a longer record spills to the heap
	b := append(buf[:0], prev[:]...)
	b = binary.LittleEndian.AppendUint64(b, seq)
	for _, s := range [...]string{subj, op, obj, reason} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	if allow {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return sha256.Sum256(b)
}

// AuditLog is the kernel's tamper-evident decision record.
type AuditLog struct {
	mu       sync.Mutex
	recs     []AuditRecord
	head     [32]byte // hash of the newest record (zero when empty)
	base     [32]byte // hash the oldest retained record chains from
	baseSeq  uint64   // seq of the oldest retained record
	nextSeq  uint64
	cap      int
	disabled bool
	// sink, when set, receives every appended record in append order,
	// called under the log's mutex. The sink must be leaf-ward: it may take
	// its own (leaf) mutex — the ledger's Append does — but must never call
	// back into the kernel or this log.
	sink func(AuditRecord)
}

// defaultAuditCap bounds retained records; the chain head remains valid
// over the full history regardless.
const defaultAuditCap = 4096

func newAuditLog() *AuditLog { return &AuditLog{cap: defaultAuditCap} }

// record appends one decision.
func (a *AuditLog) record(subj, op, obj string, allow bool, reason string) {
	a.mu.Lock()
	if a.disabled {
		a.mu.Unlock()
		return
	}
	seq := a.nextSeq
	a.nextSeq++
	r := AuditRecord{Seq: seq, Subj: subj, Op: op, Obj: obj, Allow: allow, Reason: reason, Prev: a.head}
	r.Hash = auditHash(r.Prev, seq, subj, op, obj, allow, reason)
	a.head = r.Hash
	if len(a.recs) >= a.cap && a.cap > 1 {
		// Evict the older half; the base advances to the hash the first
		// retained record chains from.
		a.evictLocked(len(a.recs) / 2)
	}
	a.recs = append(a.recs, r)
	if a.sink != nil {
		a.sink(r)
	}
	a.mu.Unlock()
}

// evictLocked drops the oldest `drop` retained records, advancing the
// chain base to the hash the first surviving record chains from. Caller
// holds the mutex and guarantees 0 < drop ≤ len(recs)-1.
func (a *AuditLog) evictLocked(drop int) {
	a.base = a.recs[drop-1].Hash
	a.baseSeq = a.recs[drop].Seq
	a.recs = append(a.recs[:0], a.recs[drop:]...)
}

// SetCap adjusts the retention bound (minimum 2) and immediately evicts
// down to it, so a quiet log cannot retain a stale, larger window until
// the next write. The chain stays valid across the change: the base
// advances exactly as on a write-driven eviction.
func (a *AuditLog) SetCap(n int) {
	if n < 2 {
		n = 2
	}
	a.mu.Lock()
	a.cap = n
	if drop := len(a.recs) - n; drop > 0 {
		a.evictLocked(drop)
	}
	a.mu.Unlock()
}

// SetSink installs a hook that observes every appended record — the
// kernel uses it to forward decisions into the durable ledger (see
// Kernel.AttachLedger). A nil fn detaches. See the sink field's contract.
func (a *AuditLog) SetSink(fn func(AuditRecord)) {
	a.mu.Lock()
	a.sink = fn
	a.mu.Unlock()
}

// Disable stops recording (for measurement runs that hammer the decision
// path); already-recorded history remains verifiable.
func (a *AuditLog) Disable() {
	a.mu.Lock()
	a.disabled = true
	a.mu.Unlock()
}

// Enable resumes recording.
func (a *AuditLog) Enable() {
	a.mu.Lock()
	a.disabled = false
	a.mu.Unlock()
}

// Len reports the number of retained records.
func (a *AuditLog) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.recs)
}

// Total reports the number of decisions ever recorded.
func (a *AuditLog) Total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextSeq
}

// Head returns the chain head hash.
func (a *AuditLog) Head() [32]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.head
}

// Records returns a copy of the retained records plus the base hash the
// first of them chains from — everything needed for offline verification.
func (a *AuditLog) Records() ([]AuditRecord, [32]byte) {
	recs, _, base, _ := a.Snapshot()
	return recs, base
}

// Snapshot returns records, baseSeq, base, and head captured atomically,
// so the head always corresponds to the record set (a head read separately
// could already cover records appended after the copy). baseSeq is the
// sequence number the first retained record must carry; without it a
// verifier cannot tell a genuine eviction from a forged re-base that
// drops records off the front of the window.
func (a *AuditLog) Snapshot() ([]AuditRecord, uint64, [32]byte, [32]byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]AuditRecord(nil), a.recs...), a.baseSeq, a.base, a.head
}

// Verify re-derives the chain over the retained records and checks it
// terminates at the published head.
func (a *AuditLog) Verify() error {
	recs, baseSeq, base, head := a.Snapshot()
	return VerifyAuditChain(recs, baseSeq, base, head)
}

// VerifyAuditChain checks a record sequence against the retained window's
// base seq and base/head hashes: the first record must carry baseSeq (so a
// window re-based to hide its oldest records is rejected), each record
// must chain from its predecessor (the first from base), carry the hash of
// its own content, and the last must equal head. An empty sequence
// verifies iff head == base or head is zero.
func VerifyAuditChain(recs []AuditRecord, baseSeq uint64, base, head [32]byte) error {
	prev := base
	seq := baseSeq
	for i := range recs {
		r := &recs[i]
		if r.Seq != seq {
			return fmt.Errorf("%w: record %d has seq %d, want %d", ErrAuditChain, i, r.Seq, seq)
		}
		if r.Prev != prev {
			return fmt.Errorf("%w: record seq %d does not chain from its predecessor", ErrAuditChain, r.Seq)
		}
		want := auditHash(prev, r.Seq, r.Subj, r.Op, r.Obj, r.Allow, r.Reason)
		if r.Hash != want {
			return fmt.Errorf("%w: record seq %d content does not match its hash", ErrAuditChain, r.Seq)
		}
		prev = r.Hash
		seq = r.Seq + 1
	}
	if len(recs) > 0 && prev != head {
		return fmt.Errorf("%w: chain ends at %x, head is %x", ErrAuditChain, prev[:4], head[:4])
	}
	if len(recs) == 0 && head != base && head != ([32]byte{}) {
		return fmt.Errorf("%w: empty log with nonzero head", ErrAuditChain)
	}
	return nil
}

// Audit exposes the kernel's decision audit log.
func (k *Kernel) Audit() *AuditLog { return k.audit }

// auditSummary renders the /proc/kernel/audit line.
func (a *AuditLog) summary() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return fmt.Sprintf("total=%d retained=%d base_seq=%d head=%s",
		a.nextSeq, len(a.recs), a.baseSeq, hex.EncodeToString(a.head[:8]))
}
