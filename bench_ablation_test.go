// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - decision-cache subregion count: the configurable parameter trading
//     setgoal invalidation cost against collision rate (§2.8)
//   - guard proof-cache: structural re-checking avoided on repeat
//     evaluations (§2.9)
//   - parameter marshaling: the per-call price of interpositioning (§5.1)
//   - SSR Merkle tree: hashing cost vs region size (§3.3)
package nexus

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/ssr"
)

// BenchmarkAblation_DCacheRegions measures the setgoal invalidation path
// (clear one subregion) against lookup cost for varying subregion counts.
func BenchmarkAblation_DCacheRegions(b *testing.B) {
	for _, regions := range []int{1, 16, 64, 512} {
		c := kernel.NewDecisionCache(regions)
		// Populate with entries across many resources.
		for i := 0; i < 4096; i++ {
			c.Insert(fmt.Sprintf("subj%d", i%8), "read", fmt.Sprintf("obj%d", i), true)
		}
		b.Run(fmt.Sprintf("lookup/regions=%d", regions), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Lookup("subj1", "read", "obj17")
			}
		})
		b.Run(fmt.Sprintf("invalidate/regions=%d", regions), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Insert + invalidate measured together; insertion is the
				// cheaper half and common to every configuration.
				c.Insert("subj1", "read", "obj17", true)
				c.InvalidateRegion("read", "obj17")
			}
		})
	}
}

// BenchmarkAblation_GuardProofCache measures repeat guard evaluations with
// the §2.9 proof cache on, on a proof large enough for the structural
// check to matter. The same call with the cache off is
// BenchmarkFig5/delegate/rules=16/full.
func BenchmarkAblation_GuardProofCache(b *testing.B) {
	w := newFig4World(b, false) // kernel decision cache off
	pf, goal, creds := fig5Proof("delegate", 16)
	w.setGoal(goal)
	w.setProof(pf, inline(creds)...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.call(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Marshal isolates the parameter-marshaling cost that
// interpositioning imposes on every call.
func BenchmarkAblation_Marshal(b *testing.B) {
	for _, size := range []int{0, 64, 1024} {
		m := &kernel.Msg{Op: "write", Obj: "file:/x", Args: [][]byte{make([]byte, size)}}
		b.Run(fmt.Sprintf("args=%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wire := kernel.MarshalMsgForBench(m)
				if _, err := kernel.DecodeWire(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_MerkleRegion measures whole-region verification cost
// (the Figure 8 hash column's per-byte component) across region sizes.
func BenchmarkAblation_MerkleRegion(b *testing.B) {
	for _, blocks := range []int{1, 16, 128, 1024} {
		data := make([][]byte, blocks)
		for i := range data {
			data[i] = make([]byte, ssr.BlockSize)
		}
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			b.SetBytes(int64(blocks * ssr.BlockSize))
			for i := 0; i < b.N; i++ {
				ssr.MerkleRoot(data)
			}
		})
	}
}

// BenchmarkAblation_Derive measures client-side proof construction, which
// the architecture deliberately keeps off the guard's critical path.
func BenchmarkAblation_Derive(b *testing.B) {
	for _, n := range []int{1, 4, 8} {
		_, goal, creds := fig5Proof("delegate", n)
		d := &proof.Deriver{Creds: creds, MaxDepth: n + 4}
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Derive(goal); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SayVsParse separates the say syscall's parse cost from
// labelstore insertion.
func BenchmarkAblation_SayVsParse(b *testing.B) {
	k := benchKernel(b, kernel.Options{})
	p, _ := k.CreateProcess(0, []byte("bench"))
	stmt := "isTypeSafe(hash:ab12) and vetted(alice)"
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := nal.Parse(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	f := nal.MustParse(stmt)
	b.Run("say-preparsed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Labels.SayFormula(f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("say-full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Labels.Say(stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
