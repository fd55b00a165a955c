// Benchmarks for the user↔kernel ABI: Session.Call versus batched
// submission through the submission/completion queue.
package nexus

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/kernel"
	"repro/internal/nal"
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
// per op while amortizing marshaling and dispatch setup. call/parallel is
// the single call from GOMAXPROCS sessions at once, each on its own core
// where the machine has them, all reading the same cached decisions: a
// warm call that shares no written cache line scales with the cores.
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
	b.Run("call/parallel", func(b *testing.B) { abiCallParallel(b, k, srv, portID) })
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

// abiCallParallel drives Session.Call through b.RunParallel, each
// goroutine on its own session and channel handle, over one shared set of
// goal-protected objects whose decisions every session has already cached.
func abiCallParallel(b *testing.B, k *kernel.Kernel, srv *kernel.Session, portID int) {
	const objs = 64
	goal := nal.MustParse("?S says mayRead(?O)")
	msgs := make([]*kernel.Msg, objs)
	for i := range msgs {
		msgs[i] = &kernel.Msg{Op: "read", Obj: fmt.Sprintf("/parallel/%d", i)}
		if err := srv.SetGoal("read", msgs[i].Obj, goal, nil); err != nil {
			b.Fatal(err)
		}
	}
	type caller struct {
		s  *kernel.Session
		ch kernel.Cap
	}
	callers := make([]caller, runtime.GOMAXPROCS(0))
	for i := range callers {
		s, err := k.NewSession([]byte(fmt.Sprintf("abi-par%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		ch, err := s.Open(portID)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range msgs { // cache every (session, object) decision
			if _, err := s.Call(ch, m); err != nil {
				b.Fatal(err)
			}
		}
		callers[i] = caller{s, ch}
	}
	upcalls := k.GuardUpcalls()
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1))
		c := callers[id%len(callers)]
		i := id * 17 // start each session on a different object
		for pb.Next() {
			if _, err := c.s.Call(c.ch, msgs[i%objs]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.StopTimer()
	if n := k.GuardUpcalls() - upcalls; n != 0 {
		b.Fatalf("%d guard upcalls: a timed call missed the decision cache", n)
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
