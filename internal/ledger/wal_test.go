package ledger

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func openWAL(t *testing.T, path string) *WAL {
	t.Helper()
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWALRoundTrip: records and seals survive a clean close/reopen and the
// recovered ledger reports the identical chain head (the acceptance
// criterion for recovery).
func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	w := openWAL(t, path)
	l := fill(t, w, Options{BatchSize: 4, SyncEvery: 1}, 10)
	head := l.ChainHead()
	stats := l.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, path)
	defer w2.Close()
	l2, err := New(w2, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if l2.ChainHead() != head {
		t.Fatal("recovered chain head differs")
	}
	if s := l2.Stats(); s.Records != stats.Records || s.Batches != stats.Batches || s.Pending != stats.Pending {
		t.Fatalf("recovered stats %+v, want %+v", s, stats)
	}
	// The recovered ledger keeps accepting the sequence where it left off.
	if err := l2.Append(mkRecord(10)); err != nil {
		t.Fatal(err)
	}
	// Recovered batches still serve verifiable proofs.
	for seq := uint64(0); seq < 8; seq++ {
		r, _ := l2.Record(seq)
		p, err := l2.Prove(seq)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyInclusion(&r, p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALCrashMidBatch simulates a kill between syncs: the WAL object is
// abandoned without Close, so bufio-buffered appends past the last sync are
// lost. Recovery must keep every synced record, drop the unsynced tail, and
// reproduce the pre-crash anchor chain head.
func TestWALCrashMidBatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	w := openWAL(t, path)
	// BatchSize 4 seals (and syncs) at seq 3 and 7; records 8 and 9 sit in
	// the bufio buffer only.
	l := fill(t, w, Options{BatchSize: 4, SyncEvery: 1000}, 10)
	head := l.ChainHead()
	// Crash: drop the WAL without Close/Sync. The OS file stays open until
	// GC, which is exactly what a SIGKILL leaves behind.

	w2 := openWAL(t, path)
	defer w2.Close()
	l2, err := New(w2, Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if l2.ChainHead() != head {
		t.Fatal("post-crash chain head differs from pre-crash")
	}
	s := l2.Stats()
	if s.Batches != 2 || s.Records != 8 || s.Pending != 0 {
		t.Fatalf("post-crash stats %+v, want 2 batches / 8 records", s)
	}
	// The lost records are re-appended with their original sequence numbers.
	for i := 8; i < 10; i++ {
		if err := l2.Append(mkRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALTruncatedTail: a torn final frame (crash mid-write) is dropped on
// replay and the file is truncated back to the last intact frame, so the
// next append produces a clean log again.
func TestWALTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	w := openWAL(t, path)
	l := fill(t, w, Options{BatchSize: 100, SyncEvery: 1}, 6)
	if l.Stats().Records != 6 {
		t.Fatal("setup")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: chop 5 bytes off the end (mid-payload).
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, path)
	l2, err := New(w2, Options{BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s := l2.Stats(); s.Records != 5 {
		t.Fatalf("recovered %d records from torn log, want 5", s.Records)
	}
	// The torn bytes were truncated away; re-appending seq 5 and reopening
	// yields a clean 6-record log.
	if err := l2.Append(mkRecord(5)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := openWAL(t, path)
	defer w3.Close()
	l3, err := New(w3, Options{BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s := l3.Stats(); s.Records != 6 {
		t.Fatalf("after repair got %d records, want 6", s.Records)
	}
}

// TestWALCorruptMidFrame: flipping a byte in an interior frame unreplays
// everything from that frame on (the suffix is untrusted once the chain of
// intact frames breaks) but never errors or panics.
func TestWALCorruptMidFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	w := openWAL(t, path)
	fill(t, w, Options{BatchSize: 100, SyncEvery: 1}, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, path)
	defer w2.Close()
	l2, err := New(w2, Options{BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if s := l2.Stats(); s.Records >= 6 {
		t.Fatalf("corrupt log still claims %d records", s.Records)
	}
}

// TestWALDuplicateReplay: a crash between backend write and ack can leave
// duplicated record frames in the log; replay skips entries at or below the
// last applied sequence.
func TestWALDuplicateReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	w := openWAL(t, path)
	for i := 0; i < 5; i++ {
		if err := w.AppendRecord(mkRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate the last two records, then a duplicate seal pair.
	for i := 3; i < 5; i++ {
		if err := w.AppendRecord(mkRecord(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.AppendSeal(); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendSeal(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := openWAL(t, path)
	defer w2.Close()
	l, err := New(w2, Options{BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Records != 5 || s.Batches != 1 || s.Pending != 0 {
		t.Fatalf("duplicate replay produced %+v, want 5 records in 1 batch", s)
	}
	// The rebuilt batch matches a never-crashed ledger over the same
	// records: identical anchor chain.
	mb := NewMemBackend()
	ref := fill(t, mb, Options{BatchSize: 100}, 5)
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if l.ChainHead() != ref.ChainHead() {
		t.Fatal("duplicate replay changed the chain head")
	}
}

// TestWALGapDetected: a record gap (lost interior frame with intact
// successors cannot happen via torn tails, but a buggy or tampered backend
// can produce one) fails recovery with ErrCorrupt instead of silently
// renumbering.
func TestWALGapDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	w := openWAL(t, path)
	if err := w.AppendRecord(mkRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRecord(mkRecord(2)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := openWAL(t, path)
	defer w2.Close()
	if _, err := New(w2, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap not detected: %v", err)
	}
}

// TestWALHeaderRejected: a file that is not our WAL fails Open rather than
// being silently rebuilt (that would discard history).
func TestWALHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.wal")
	if err := os.WriteFile(path, []byte("definitely not a WAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); !errors.Is(err, ErrWALHeader) {
		t.Fatalf("bad header accepted: %v", err)
	}
	// Short file (shorter than the magic) is rejected the same way.
	if err := os.WriteFile(path, []byte("NXL"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWAL(path); !errors.Is(err, ErrWALHeader) {
		t.Fatalf("short header accepted: %v", err)
	}
}
