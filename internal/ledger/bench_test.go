package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// benchRec builds the fixed-shape decision record the benchmarks append.
func benchRec(seq uint64) Record {
	r := Record{Seq: seq, Subj: "ipd:12", Op: "read", Obj: "file:/bench", Allow: true, Reason: "cache"}
	r.ChainHash[0] = byte(seq)
	r.ChainHash[8] = byte(seq >> 8)
	return r
}

// BenchmarkLedger is BENCH_ledger.json, the durable audit ledger:
//
//	append/wal      one decision into the file WAL, fsync batched
//	append/mem      the same append into the in-memory backend (amortized
//	                Merkle seal every 256 records)
//	anchor/seal     sealing one 256-record batch: Merkle root + anchor
//	                hash over the running chain
//	prove           building an inclusion proof for an anchored record
//	verify          checking a proof offline against its batch anchor
//	replay/wal-10k  recovering a 10k-record WAL from disk into a live
//	                ledger (the cost of a reboot)
//
// prove and verify are the offline-auditor path: no kernel, no backend,
// just the anchored batches and the proof.
func BenchmarkLedger(b *testing.B) {
	dir := b.TempDir()
	// Both append rows start a new ledger every appendWindow records: the
	// ledger retains every record for proof service, so an unbounded loop
	// would measure GC scanning of an ever-growing heap, not the append.
	const appendWindow = 1 << 16
	appendRow := func(name string, open func(b *testing.B) (*Ledger, func())) {
		b.Run(name, func(b *testing.B) {
			l, done := open(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%appendWindow == 0 && i > 0 {
					b.StopTimer()
					done()
					l, done = open(b)
					b.StartTimer()
				}
				if err := l.Append(benchRec(uint64(i % appendWindow))); err != nil {
					b.Fatal(err)
				}
			}
			done()
		})
	}
	// append/wal runs first: measured after five runs of append/mem, it
	// read about twice as slow (2-vCPU VM, ext4), an effect of the rows'
	// order rather than of the append.
	wals := 0
	appendRow("append/wal", func(b *testing.B) (*Ledger, func()) {
		wals++
		path := filepath.Join(dir, fmt.Sprintf("append-%d.wal", wals))
		w, err := OpenWAL(path)
		if err != nil {
			b.Fatal(err)
		}
		l, err := New(w, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return l, func() { w.Close(); os.Remove(path) }
	})
	appendRow("append/mem", func(b *testing.B) (*Ledger, func()) {
		l, err := New(NewMemBackend(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		return l, func() {}
	})

	// Seal cost, isolated by staging all but the batch-completing record
	// off the clock.
	b.Run("anchor/seal", func(b *testing.B) {
		const window = 64 // batches per ledger; bounds retained heap
		var l *Ledger
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if i%window == 0 {
				var err error
				if l, err = New(NewMemBackend(), Options{}); err != nil {
					b.Fatal(err)
				}
			}
			base := uint64(i%window) * DefaultBatchSize
			for j := uint64(0); j < DefaultBatchSize-1; j++ {
				if err := l.Append(benchRec(base + j)); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := l.Append(benchRec(base + DefaultBatchSize - 1)); err != nil {
				b.Fatal(err)
			}
		}
	})

	// fill appends a corpus of 10k records to a new ledger on backend and
	// anchors them.
	const corpus = 10000
	fill := func(backend Backend) *Ledger {
		l, err := New(backend, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < corpus; i++ {
			if err := l.Append(benchRec(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Flush(); err != nil {
			b.Fatal(err)
		}
		return l
	}
	lc := fill(NewMemBackend())
	b.Run("prove", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := lc.Prove(uint64(i % corpus)); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec, _ := lc.Record(corpus / 2)
	pf, err := lc.Prove(corpus / 2)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := VerifyInclusion(&rec, pf); err != nil {
				b.Fatal(err)
			}
		}
	})
	replayPath := filepath.Join(dir, "replay.wal")
	w, err := OpenWAL(replayPath)
	if err != nil {
		b.Fatal(err)
	}
	fill(w)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("replay/wal-10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := OpenWAL(replayPath)
			if err != nil {
				b.Fatal(err)
			}
			l, err := New(w, Options{})
			if err != nil {
				b.Fatal(err)
			}
			if s := l.Stats(); s.Records != corpus {
				b.Fatalf("replay recovered %d records, want %d", s.Records, corpus)
			}
			w.Close()
		}
	})
}
