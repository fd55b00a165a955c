// Benchmarks for the user↔kernel ABI: Session.Call versus batched
// submission through the submission/completion queue.
package nexus

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
)

// guardAllowAll admits every request cacheably, so the warm path is the
// decision cache, exactly like the Figure 4 steady state.
type guardAllowAll struct{}

func (guardAllowAll) Check(*kernel.GuardRequest) kernel.GuardDecision {
	return kernel.GuardDecision{Allow: true, Cacheable: true}
}

// BenchmarkABI is BENCH_abi.json, the acceptance exhibit for the ABI: the
// single-call path against batched submission at depths 1, 8 and 64. Every
// iteration is one IPC operation, whichever entry shape carried it, so
// batch=64 per-op latency must undercut single-call — the batch pushes N
// operations through one kernel entry, resolving handles and authorizing
// per op while amortizing marshaling and dispatch setup.
//
// The target is a guarded echo port behind the full dispatch pipeline:
// authorization on with a warm decision cache, interposition on — the
// "Nexus standard" configuration of Table 1.
func BenchmarkABI(b *testing.B) {
	k := benchKernel(b, kernel.Options{})
	k.SetGuard(guardAllowAll{})
	srv, err := k.NewSession([]byte("abi-srv"))
	if err != nil {
		b.Fatal(err)
	}
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return nil, nil })
	if err != nil {
		b.Fatal(err)
	}
	portID, _ := srv.PortOf(pc)
	cli, err := k.NewSession([]byte("abi-cli"))
	if err != nil {
		b.Fatal(err)
	}
	ch, err := cli.Open(portID)
	if err != nil {
		b.Fatal(err)
	}
	arg := make([]byte, 64)
	m := &kernel.Msg{Op: "read", Obj: "obj", Args: [][]byte{arg}}
	// Warm the decision cache so the measured paths are the steady state.
	if _, err := cli.Call(ch, m); err != nil {
		b.Fatal(err)
	}
	b.Run("call/single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cli.Call(ch, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, depth := range []int{1, 8, 64} {
		subs := make([]kernel.Sub, depth)
		for i := range subs {
			subs[i] = kernel.Sub{Cap: ch, Op: "read", Obj: "obj", Args: [][]byte{arg}}
		}
		comps := make([]kernel.Completion, 0, depth)
		b.Run(fmt.Sprintf("submit/batch%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for done := 0; done < b.N; done += depth {
				out, err := cli.Submit(nil, subs[:min(depth, b.N-done)], comps)
				if err != nil {
					b.Fatal(err)
				}
				for j := range out {
					if out[j].Err != nil {
						b.Fatal(out[j].Err)
					}
				}
			}
		})
	}
}

// BenchmarkBatchedSyscall measures object-handle submission — batched,
// authorization-checked null operations — against the per-call syscall
// path, isolating the ABI entry overhead with no handler work at all.
func BenchmarkBatchedSyscall(b *testing.B) {
	k := benchKernel(b, kernel.Options{})
	k.SetGuard(guardAllowAll{})
	s, err := k.NewSession([]byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Null(); err != nil {
		b.Fatal(err)
	}
	b.Run("null-call", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Null()
		}
	})
	b.Run("null-batch64", func(b *testing.B) {
		obj, err := s.OpenObject("null")
		if err != nil {
			b.Fatal(err)
		}
		subs := make([]kernel.Sub, 64)
		for i := range subs {
			subs[i] = kernel.Sub{Cap: obj, Op: "null"}
		}
		comps := make([]kernel.Completion, 0, 64)
		if _, err := s.Submit(nil, subs[:1], comps); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done := 0; done < b.N; done += 64 {
			if _, err := s.Submit(nil, subs[:min(64, b.N-done)], comps); err != nil {
				b.Fatal(err)
			}
		}
	})
}
