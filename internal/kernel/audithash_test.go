package kernel

import (
	"encoding/hex"
	"strings"
	"testing"
)

// auditHashVectors are chain hashes computed with a streaming SHA-256
// digest, as the log first wrote them. AuditLog.Verify recomputes stored
// hashes, so the encoding must never drift.
var auditHashVectors = []struct {
	prev                  string
	seq                   uint64
	subj, op, obj, reason string
	allow                 bool
	want                  string
}{
	{"", 0, "", "", "", "", false, "65a16cb7861335d5ace3c60718b5052e44660726da4cd13bb745381b235a1785"},
	{"", 1, "key:ab12.boot.ipd.7", "read", "file:/x", "", true, "d5f5fdd1f12d3e88be9817ff53cc8972eb0223befcf9143f33c6433f01bd8af0"},
	{"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", 4096,
		"key:9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08.boot.ipd.12", "put", "fauxbook/archive",
		"authority embed:clock no longer affirms NTP says TimeNow < @2026-03-19", false, "c52f5df23cf07eaf5151a198071f6c532bbc9c59f3d7f07d9b3afc50882eb516"},
	{"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", 1 << 40,
		strings.Repeat("s", 300), "op", strings.Repeat("o", 200), strings.Repeat("r", 90), true, "b744cbea951122896ea017d3727f251c11915ced616b27df630dcb53cd6a0600"},
}

func TestAuditHashGolden(t *testing.T) {
	for i, v := range auditHashVectors {
		var prev [32]byte
		if v.prev != "" {
			b, err := hex.DecodeString(v.prev)
			if err != nil || len(b) != 32 {
				t.Fatalf("vector %d: bad prev", i)
			}
			copy(prev[:], b)
		}
		got := auditHash(prev, v.seq, v.subj, v.op, v.obj, v.allow, v.reason)
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("vector %d: auditHash = %x, want %s", i, got, v.want)
		}
	}
}

// TestAllocAuditHash pins chain hashing at zero allocations for a record
// that fits the hash's stack buffer: every audited decision pays it.
func TestAllocAuditHash(t *testing.T) {
	v := auditHashVectors[2]
	var prev [32]byte
	if a := testing.AllocsPerRun(100, func() {
		auditHash(prev, v.seq, v.subj, v.op, v.obj, v.allow, v.reason)
	}); a != 0 {
		t.Errorf("auditHash allocates %.1f objects/op, want 0", a)
	}
}
