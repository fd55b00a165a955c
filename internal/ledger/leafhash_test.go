package ledger

import (
	"encoding/hex"
	"strings"
	"testing"
)

// leafHashVectors are Merkle leaves computed with a streaming SHA-256
// digest, as the ledger first wrote them. VerifyAnchors, WAL recovery and
// inclusion proofs recompute stored hashes, so the encoding must never
// drift.
var leafHashVectors = []struct {
	r    Record
	want string
}{
	{Record{}, "821701cbc0dcc51af00bd4e694eed96ca7fff5233a984237820317d8cbc107f3"},
	{Record{Seq: 1, Subj: "key:ab12.boot.ipd.7", Op: "read", Obj: "file:/x", Allow: true,
		ChainHash: [32]byte{1, 2, 3}}, "99f48dc8d643b52ca00ef1569bf2d861a1f9165175404924fcfdf316cc997e0d"},
	{Record{Seq: 4096, Subj: "key:9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08.boot.ipd.12",
		Op: "put", Obj: "fauxbook/archive", Reason: "authority embed:clock no longer affirms NTP says TimeNow < @2026-03-19",
		ChainHash: [32]byte{31: 0xff}}, "c80b53c582719b6af8c91bb23f95cabac16dd831515711e3035c8f00f327da10"},
	{Record{Seq: 1 << 40, Subj: strings.Repeat("s", 300), Op: "op", Obj: strings.Repeat("o", 200),
		Reason: strings.Repeat("r", 90), Allow: true}, "47a0c69b17edd4bcf751724de15b1afd4f36bff1f1da79606553889c46fb78d4"},
}

func TestLeafHashGolden(t *testing.T) {
	for i, v := range leafHashVectors {
		got := LeafHash(&v.r)
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("vector %d: LeafHash = %x, want %s", i, got, v.want)
		}
	}
}

// TestAllocLeafHash pins leaf hashing at zero allocations for a record
// that fits the hash's stack buffer: every ledger append pays it.
func TestAllocLeafHash(t *testing.T) {
	r := &leafHashVectors[2].r
	if a := testing.AllocsPerRun(100, func() { LeafHash(r) }); a != 0 {
		t.Errorf("LeafHash allocates %.1f objects/op, want 0", a)
	}
}
