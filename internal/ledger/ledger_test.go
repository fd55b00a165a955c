package ledger

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

// mkRecord builds a deterministic test record.
func mkRecord(seq uint64) Record {
	var chain [32]byte
	chain = sha256.Sum256([]byte(fmt.Sprintf("chain-%d", seq)))
	return Record{
		Seq:       seq,
		Subj:      fmt.Sprintf("key:nk.boot.ipd.%d", seq%7),
		Op:        "read",
		Obj:       fmt.Sprintf("obj-%d", seq%13),
		Allow:     seq%3 != 0,
		Reason:    "guard says so",
		ChainHash: chain,
	}
}

// fill appends records [0, n) and returns the ledger.
func fill(t testing.TB, b Backend, opts Options, n int) *Ledger {
	t.Helper()
	l, err := New(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(mkRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestLedgerProveAll: every record of a run verifies against its anchored
// root, whatever the batch-size/record-count alignment (the acceptance
// criterion, scaled down; the 10k runs are TestLedgerProve10k below and
// BenchmarkLedger/prove, which `make bench-json` records).
func TestLedgerProveAll(t *testing.T) {
	for _, tc := range []struct{ n, batch int }{
		{1, 4}, {4, 4}, {5, 4}, {64, 16}, {100, 16}, {257, 64},
	} {
		l := fill(t, NewMemBackend(), Options{BatchSize: tc.batch}, tc.n)
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := VerifyAnchors(l.Batches(), [32]byte{}); err != nil {
			t.Fatalf("n=%d batch=%d: anchors: %v", tc.n, tc.batch, err)
		}
		for seq := uint64(0); seq < uint64(tc.n); seq++ {
			r, ok := l.Record(seq)
			if !ok {
				t.Fatalf("n=%d batch=%d: record %d missing", tc.n, tc.batch, seq)
			}
			p, err := l.Prove(seq)
			if err != nil {
				t.Fatalf("n=%d batch=%d: prove %d: %v", tc.n, tc.batch, seq, err)
			}
			if err := VerifyInclusion(&r, p); err != nil {
				t.Fatalf("n=%d batch=%d: verify %d: %v", tc.n, tc.batch, seq, err)
			}
		}
	}
}

// TestLedgerProve10k is the full-scale acceptance run: 10k decisions, all
// provable, single-bit mutations all rejected (spot-checked across fields).
func TestLedgerProve10k(t *testing.T) {
	const n = 10_000
	l := fill(t, NewMemBackend(), Options{}, n)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyAnchors(l.Batches(), [32]byte{}); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < n; seq++ {
		r, _ := l.Record(seq)
		p, err := l.Prove(seq)
		if err != nil {
			t.Fatalf("prove %d: %v", seq, err)
		}
		if err := VerifyInclusion(&r, p); err != nil {
			t.Fatalf("verify %d: %v", seq, err)
		}
		// Every 97th record: mutate each field in turn and require rejection.
		if seq%97 != 0 {
			continue
		}
		muts := []func(*Record){
			func(r *Record) { r.Allow = !r.Allow },
			func(r *Record) { r.Subj = r.Subj + "x" },
			func(r *Record) { r.Op = "write" },
			func(r *Record) { r.Obj = "other" },
			func(r *Record) { r.Reason = "" },
			func(r *Record) { r.Seq++ },
			func(r *Record) { r.ChainHash[0] ^= 0x01 },
			func(r *Record) { r.ChainHash[31] ^= 0x80 },
		}
		for mi, mut := range muts {
			bad := r
			mut(&bad)
			if err := VerifyInclusion(&bad, p); err == nil {
				t.Fatalf("seq %d mutation %d accepted", seq, mi)
			}
		}
	}
}

// TestLedgerProofTamper: tampering with the proof itself (path, root,
// anchor, batch metadata) is rejected too.
func TestLedgerProofTamper(t *testing.T) {
	l := fill(t, NewMemBackend(), Options{BatchSize: 8}, 24)
	r, _ := l.Record(10)
	p, err := l.Prove(10)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*InclusionProof)) *InclusionProof {
		cp := *p
		cp.Path = append([][32]byte(nil), p.Path...)
		cp.Left = append([]bool(nil), p.Left...)
		f(&cp)
		return &cp
	}
	for i, bad := range []*InclusionProof{
		mutate(func(p *InclusionProof) { p.Path[0][5] ^= 1 }),
		mutate(func(p *InclusionProof) { p.Left[0] = !p.Left[0] }),
		mutate(func(p *InclusionProof) { p.Batch.Root[0] ^= 1 }),
		mutate(func(p *InclusionProof) { p.Batch.Anchor[0] ^= 1 }),
		mutate(func(p *InclusionProof) { p.Batch.Prev[0] ^= 1 }),
		mutate(func(p *InclusionProof) { p.Batch.FirstSeq += 8; p.Batch.LastSeq += 8 }),
		mutate(func(p *InclusionProof) { p.Index++ }),
		mutate(func(p *InclusionProof) { p.Path = p.Path[:len(p.Path)-1]; p.Left = p.Left[:len(p.Left)-1] }),
	} {
		if err := VerifyInclusion(&r, bad); !errors.Is(err, ErrProof) {
			t.Fatalf("proof mutation %d accepted (err=%v)", i, err)
		}
	}
}

// TestLedgerAnchorChain: anchors chain batch to batch; a swapped or
// re-rooted batch breaks VerifyAnchors.
func TestLedgerAnchorChain(t *testing.T) {
	l := fill(t, NewMemBackend(), Options{BatchSize: 4}, 16)
	bs := l.Batches()
	if len(bs) != 4 {
		t.Fatalf("got %d batches, want 4", len(bs))
	}
	if head := l.ChainHead(); head != bs[3].Anchor {
		t.Fatal("chain head is not the last anchor")
	}
	if err := VerifyAnchors(bs, [32]byte{}); err != nil {
		t.Fatal(err)
	}
	swapped := append([]Batch(nil), bs...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if err := VerifyAnchors(swapped, [32]byte{}); !errors.Is(err, ErrProof) {
		t.Fatalf("swapped batches accepted: %v", err)
	}
	rerooted := append([]Batch(nil), bs...)
	rerooted[2].Root[0] ^= 1
	if err := VerifyAnchors(rerooted, [32]byte{}); !errors.Is(err, ErrProof) {
		t.Fatalf("re-rooted batch accepted: %v", err)
	}
}

// TestLedgerSequencing: out-of-order appends are refused; pending records
// are queryable but not provable until flushed.
func TestLedgerSequencing(t *testing.T) {
	l := fill(t, NewMemBackend(), Options{BatchSize: 8}, 3)
	if err := l.Append(mkRecord(7)); !errors.Is(err, ErrSequence) {
		t.Fatalf("gap accepted: %v", err)
	}
	if err := l.Append(mkRecord(1)); !errors.Is(err, ErrSequence) {
		t.Fatalf("duplicate accepted: %v", err)
	}
	if _, ok := l.Record(2); !ok {
		t.Fatal("pending record not queryable")
	}
	if _, err := l.Prove(2); !errors.Is(err, ErrNoRecord) {
		t.Fatalf("pending record provable before flush: %v", err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Prove(2); err != nil {
		t.Fatalf("flushed record not provable: %v", err)
	}
	if _, err := l.Prove(99); !errors.Is(err, ErrNoRecord) {
		t.Fatal("phantom seq provable")
	}
}

// TestLedgerBackendFailure: a failing backend is counted and reported but
// the in-memory batcher stays consistent and serves proofs.
func TestLedgerBackendFailure(t *testing.T) {
	mb := NewMemBackend()
	l := fill(t, mb, Options{BatchSize: 4}, 2)
	mb.FailAppends = errors.New("disk on fire")
	var failed int
	for i := 2; i < 6; i++ {
		if err := l.Append(mkRecord(uint64(i))); err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("backend failures not surfaced")
	}
	if s := l.Stats(); s.Errors == 0 || s.Records != 6 {
		t.Fatalf("stats after failures: %+v", s)
	}
	mb.FailAppends = nil
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(0); seq < 6; seq++ {
		r, _ := l.Record(seq)
		p, err := l.Prove(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyInclusion(&r, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLedgerMemReplay: a ledger rebuilt from a mem backend's entry stream
// reproduces the identical chain head, including early-flushed (short)
// batches.
func TestLedgerMemReplay(t *testing.T) {
	mb := NewMemBackend()
	l := fill(t, mb, Options{BatchSize: 8}, 13)
	if err := l.Flush(); err != nil { // short batch: 13 = 8 + 5
		t.Fatal(err)
	}
	for i := 13; i < 20; i++ {
		if err := l.Append(mkRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l2, err := New(mb, Options{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if l2.ChainHead() != l.ChainHead() {
		t.Fatal("replayed chain head differs")
	}
	if got, want := len(l2.Batches()), len(l.Batches()); got != want {
		t.Fatalf("replayed %d batches, want %d", got, want)
	}
}
