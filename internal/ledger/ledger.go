// Package ledger is the durable, queryable audit ledger behind the
// kernel's in-memory decision hash chain: a Merkle batcher that aggregates
// decision records into fixed-size batches, anchors each batch root into a
// hash chain of its own, and persists every record through a pluggable
// backend — an in-memory mock for tests and a file-backed WAL with
// crash-recovery replay for deployment. Per-record inclusion proofs
// (Prove/VerifyInclusion) let a client verify offline that "the kernel
// authorized X at T" against a published batch root and anchor, without
// trusting the kernel after the fact.
//
// The design follows the batcher/store split of production audit ledgers:
// the batcher owns sequencing, Merkle aggregation, and the anchor chain;
// the backend owns durability and nothing else. All batcher state is
// deterministically reconstructible from the backend's record stream, so
// recovery is a replay, and a recovered ledger reports the identical chain
// head (anchor) it had before the crash.
//
// Locking: the ledger mutex is a leaf — nothing is acquired while it is
// held except the backend's own internal state. The kernel's audit log
// forwards records to Append while holding its (also leaf-ward) mutex;
// Append must therefore never call back into the kernel.
package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Ledger errors.
var (
	// ErrProof reports an inclusion proof that does not verify.
	ErrProof = errors.New("ledger: inclusion proof verification failed")
	// ErrNoRecord reports a sequence number outside the ledger.
	ErrNoRecord = errors.New("ledger: no such record")
	// ErrSequence reports a record appended out of order.
	ErrSequence = errors.New("ledger: record out of sequence")
	// ErrCorrupt reports backend contents that cannot be replayed.
	ErrCorrupt = errors.New("ledger: backend corrupt")
)

// Record is one authorization decision as the ledger stores it: the flat
// fields of the kernel's audit record plus the audit chain hash after the
// record, binding the ledger's view to the kernel's chain.
type Record struct {
	Seq    uint64
	Subj   string
	Op     string
	Obj    string
	Allow  bool
	Reason string
	// ChainHash is the kernel audit-chain head immediately after this
	// record; it is covered by the Merkle leaf, so a proof over the ledger
	// also commits to the kernel's own chain.
	ChainHash [32]byte
}

// LeafHash computes the Merkle leaf for a record. Every field participates,
// so a single-bit mutation of any field breaks the proof. The hashed bytes
// are laid out in a stack buffer and digested in one call, so a record
// that fits the buffer hashes without allocating.
func LeafHash(r *Record) [32]byte {
	var buf [512]byte // a longer record spills to the heap
	b := append(buf[:0], "nexus-ledger-leaf/"...)
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	for _, s := range [...]string{r.Subj, r.Op, r.Obj, r.Reason} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	if r.Allow {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = append(b, r.ChainHash[:]...)
	return sha256.Sum256(b)
}

// Batch is one sealed, anchored aggregate of records. Anchors form a hash
// chain: publishing the latest anchor commits to every batch (and through
// the leaves, every record and the kernel chain) before it.
type Batch struct {
	Index    uint64 // 0-based position in the anchor chain
	FirstSeq uint64
	LastSeq  uint64
	Root     [32]byte // Merkle root over the records' leaf hashes
	Prev     [32]byte // anchor before this batch
	Anchor   [32]byte // hash chaining Prev, Index, seqs, and Root
}

// anchorHash folds a sealed batch into the anchor chain.
func anchorHash(prev [32]byte, index, firstSeq, lastSeq uint64, root [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("nexus-ledger-anchor/"))
	h.Write(prev[:])
	var b [8]byte
	for _, v := range [...]uint64{index, firstSeq, lastSeq} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	h.Write(root[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// VerifyAnchors checks a batch sequence's anchor chain from the given
// starting anchor (zero for a chain from genesis).
func VerifyAnchors(batches []Batch, start [32]byte) error {
	prev := start
	for i := range batches {
		b := &batches[i]
		if b.Prev != prev {
			return fmt.Errorf("%w: batch %d does not chain from its predecessor", ErrProof, b.Index)
		}
		if anchorHash(b.Prev, b.Index, b.FirstSeq, b.LastSeq, b.Root) != b.Anchor {
			return fmt.Errorf("%w: batch %d anchor does not match its content", ErrProof, b.Index)
		}
		prev = b.Anchor
	}
	return nil
}

// Options configures a ledger.
type Options struct {
	// BatchSize is the number of records per sealed batch (default 256).
	BatchSize int
	// SyncEvery bounds fsync batching: the backend is synced after this
	// many appended records (and always when a batch seals). 0 selects the
	// default (64); 1 syncs every record.
	SyncEvery int
}

// DefaultBatchSize is the records-per-batch default.
const DefaultBatchSize = 256

// defaultSyncEvery is the fsync batching default.
const defaultSyncEvery = 64

// sealedBatch retains, beside the public batch, the leaves and records
// needed to serve inclusion proofs and queries.
type sealedBatch struct {
	Batch
	leaves [][32]byte
	recs   []Record
}

// Stats is a point-in-time summary of ledger state.
type Stats struct {
	Records uint64 // records appended (sealed + pending)
	Batches uint64 // sealed batches
	Pending uint64 // records not yet sealed into a batch
	Errors  uint64 // appends the backend rejected
}

// Ledger is the Merkle batcher. Create with New; the zero value is not
// usable.
type Ledger struct {
	mu        sync.Mutex
	backend   Backend
	batchSize int
	syncEvery int

	pending []Record
	leaves  [][32]byte
	batches []sealedBatch
	anchor  [32]byte
	nextSeq uint64 // seq the next appended record must carry
	started bool   // false until the first record fixes the base seq
	unsynct int    // records appended since the last backend sync
	errs    uint64
}

// New opens a ledger over the backend, replaying whatever the backend
// already holds: records rebuild the pending window and seal markers
// rebuild the sealed batches, so the recovered anchor chain head is
// identical to the pre-crash one. Replay tolerates duplicated suffixes
// (a crash between backend write and ack re-delivers records): entries
// at or below the last applied sequence are skipped.
func New(b Backend, opts Options) (*Ledger, error) {
	l := &Ledger{
		backend:   b,
		batchSize: opts.BatchSize,
		syncEvery: opts.SyncEvery,
	}
	if l.batchSize <= 0 {
		l.batchSize = DefaultBatchSize
	}
	if l.syncEvery <= 0 {
		l.syncEvery = defaultSyncEvery
	}
	err := b.Replay(func(e Entry) error {
		switch e.Kind {
		case EntryRecord:
			if l.started && e.Record.Seq < l.nextSeq {
				return nil // duplicate replay; already applied
			}
			if l.started && e.Record.Seq > l.nextSeq {
				return fmt.Errorf("%w: record gap at seq %d (want %d)", ErrCorrupt, e.Record.Seq, l.nextSeq)
			}
			l.apply(e.Record)
		case EntrySeal:
			// A duplicated seal (or one replayed for an already-sealed
			// prefix) finds the pending window empty and is a no-op.
			l.seal()
		default:
			return fmt.Errorf("%w: unknown entry kind %d", ErrCorrupt, e.Kind)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// apply adds a record to the batcher state without touching the backend.
func (l *Ledger) apply(r Record) {
	l.pending = append(l.pending, r)
	l.leaves = append(l.leaves, LeafHash(&r))
	l.nextSeq = r.Seq + 1
	l.started = true
}

// seal closes the pending window into an anchored batch. No-op when
// nothing is pending.
func (l *Ledger) seal() {
	if len(l.pending) == 0 {
		return
	}
	root := merkleRoot(l.leaves)
	b := Batch{
		Index:    uint64(len(l.batches)),
		FirstSeq: l.pending[0].Seq,
		LastSeq:  l.pending[len(l.pending)-1].Seq,
		Root:     root,
		Prev:     l.anchor,
	}
	b.Anchor = anchorHash(b.Prev, b.Index, b.FirstSeq, b.LastSeq, b.Root)
	l.batches = append(l.batches, sealedBatch{
		Batch:  b,
		leaves: l.leaves,
		recs:   l.pending,
	})
	l.anchor = b.Anchor
	l.pending = nil
	l.leaves = nil
}

// Append adds one decision record. Records must arrive in sequence (the
// audit log's single appender guarantees this); when the pending window
// reaches the batch size the batch is sealed, anchored, and the backend
// synced. Backend failures are counted and returned but do not corrupt
// batcher state: the record is retained in memory so proofs stay serveable
// even when the disk is not.
func (l *Ledger) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started && r.Seq != l.nextSeq {
		return fmt.Errorf("%w: got seq %d, want %d", ErrSequence, r.Seq, l.nextSeq)
	}
	var err error
	if werr := l.backend.AppendRecord(r); werr != nil {
		l.errs++
		err = werr
	}
	l.apply(r)
	l.unsynct++
	if len(l.pending) >= l.batchSize {
		if serr := l.sealLocked(); serr != nil && err == nil {
			err = serr
		}
	} else if l.unsynct >= l.syncEvery {
		if serr := l.backend.Sync(); serr != nil {
			l.errs++
			if err == nil {
				err = serr
			}
		}
		l.unsynct = 0
	}
	return err
}

// sealLocked persists a seal marker, seals the pending window, and syncs.
func (l *Ledger) sealLocked() error {
	var err error
	if werr := l.backend.AppendSeal(); werr != nil {
		l.errs++
		err = werr
	}
	l.seal()
	if serr := l.backend.Sync(); serr != nil {
		l.errs++
		if err == nil {
			err = serr
		}
	}
	l.unsynct = 0
	return err
}

// Flush seals the pending window (if any) into a — possibly short — batch
// and syncs the backend, so every appended record becomes provable against
// an anchored root. Use it before publishing the chain head or shutting
// down.
func (l *Ledger) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.pending) == 0 {
		if err := l.backend.Sync(); err != nil {
			l.errs++
			return err
		}
		l.unsynct = 0
		return nil
	}
	return l.sealLocked()
}

// NextSeq reports the sequence number the next Append must carry and
// whether the base is fixed yet (false until the first record: a fresh
// ledger accepts any starting sequence).
func (l *Ledger) NextSeq() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq, l.started
}

// ChainHead returns the current anchor — the hash that commits to every
// sealed batch and, transitively, every sealed record.
func (l *Ledger) ChainHead() [32]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.anchor
}

// Batches returns a copy of the sealed batch metadata.
func (l *Ledger) Batches() []Batch {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Batch, len(l.batches))
	for i := range l.batches {
		out[i] = l.batches[i].Batch
	}
	return out
}

// Stats reports ledger occupancy.
func (l *Ledger) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n uint64
	for i := range l.batches {
		n += uint64(len(l.batches[i].recs))
	}
	return Stats{
		Records: n + uint64(len(l.pending)),
		Batches: uint64(len(l.batches)),
		Pending: uint64(len(l.pending)),
		Errors:  l.errs,
	}
}

// Record returns the sealed or pending record with the given sequence
// number — the query path ("what did the kernel decide at seq N?").
func (l *Ledger) Record(seq uint64) (Record, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if sb := l.batchFor(seq); sb != nil {
		return sb.recs[seq-sb.FirstSeq], true
	}
	if n := len(l.pending); n > 0 && seq >= l.pending[0].Seq && seq <= l.pending[n-1].Seq {
		return l.pending[seq-l.pending[0].Seq], true
	}
	return Record{}, false
}

// batchFor locates the sealed batch containing seq, or nil. Batches hold
// contiguous ranges, so binary search on FirstSeq suffices.
func (l *Ledger) batchFor(seq uint64) *sealedBatch {
	lo, hi := 0, len(l.batches)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.batches[mid].LastSeq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(l.batches) && l.batches[lo].FirstSeq <= seq && seq <= l.batches[lo].LastSeq {
		return &l.batches[lo]
	}
	return nil
}

// InclusionProof carries everything needed to verify one record offline
// against a published anchor: the Merkle path to the batch root plus the
// batch's anchoring metadata.
type InclusionProof struct {
	Batch Batch
	// Index is the record's leaf position within the batch.
	Index int
	// Path holds the sibling hashes from leaf to root; Left[i] reports
	// whether Path[i] is the left operand at level i.
	Path [][32]byte
	Left []bool
}

// Prove builds the inclusion proof for the record with the given sequence
// number. Records still pending (not yet sealed into a batch) have no
// anchored root yet; call Flush first.
func (l *Ledger) Prove(seq uint64) (*InclusionProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sb := l.batchFor(seq)
	if sb == nil {
		return nil, fmt.Errorf("%w: seq %d not in a sealed batch", ErrNoRecord, seq)
	}
	idx := int(seq - sb.FirstSeq)
	path, left := merklePath(sb.leaves, idx)
	return &InclusionProof{Batch: sb.Batch, Index: idx, Path: path, Left: left}, nil
}

// VerifyInclusion checks a record against an inclusion proof: the leaf
// hash of the record must reduce through the proof path to the batch root,
// and the batch's anchor must match its content. Callers tie the batch to
// the published chain by comparing p.Batch.Anchor (or walking VerifyAnchors
// over the batch list) against the anchor they trust.
func VerifyInclusion(r *Record, p *InclusionProof) error {
	if r.Seq < p.Batch.FirstSeq || r.Seq > p.Batch.LastSeq {
		return fmt.Errorf("%w: seq %d outside batch [%d,%d]", ErrProof, r.Seq, p.Batch.FirstSeq, p.Batch.LastSeq)
	}
	if uint64(p.Index) != r.Seq-p.Batch.FirstSeq {
		return fmt.Errorf("%w: leaf index %d does not match seq %d", ErrProof, p.Index, r.Seq)
	}
	if len(p.Path) != len(p.Left) {
		return fmt.Errorf("%w: malformed path", ErrProof)
	}
	h := LeafHash(r)
	for i, sib := range p.Path {
		if p.Left[i] {
			h = merkleNode(sib, h)
		} else {
			h = merkleNode(h, sib)
		}
	}
	if h != p.Batch.Root {
		return fmt.Errorf("%w: path does not reduce to batch root", ErrProof)
	}
	if anchorHash(p.Batch.Prev, p.Batch.Index, p.Batch.FirstSeq, p.Batch.LastSeq, p.Batch.Root) != p.Batch.Anchor {
		return fmt.Errorf("%w: batch anchor does not match its content", ErrProof)
	}
	return nil
}
