// Multi-core scaling benchmarks for the authorization fast path. The
// paper's caches (§2.8–§2.9) exist to take authorization off the hot path;
// these benchmarks show the sharded implementations actually scale with
// cores. `make bench-parallel` runs them at GOMAXPROCS 1, 2, 4 and 8 and
// prints one row per GOMAXPROCS in operations per second.
package nexus

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// BenchmarkParallel is the scaling exhibit: each column is one fast path
// driven from GOMAXPROCS goroutines, in operations per second.
func BenchmarkParallel(b *testing.B) {
	b.Run("guard", parallelGuard)
	b.Run("syscall", parallelSyscall(kernel.Options{}))
	b.Run("syscall-bare", parallelSyscall(kernel.Options{NoInterposition: true, NoAuthorization: true}))
	b.Run("ipc", parallelIPC)
	b.Run("dcache", parallelDCache)
}

// parallelGuard hammers one guard.Generic with a warm proof cache
// from GOMAXPROCS goroutines, spread over many distinct (goal, proof)
// combinations the way many clients would be. Every check re-instantiates
// the goal, derives the canonical cache key, and hits a proof-cache shard.
func parallelGuard(b *testing.B) {
	k := benchKernel(b, kernel.Options{})
	g := guard.New(k)
	k.SetGuard(g)
	cli, err := k.CreateProcess(0, []byte("client"))
	if err != nil {
		b.Fatal(err)
	}

	goal := nal.MustParse("?S says wantsAccess(?O)")
	const objs = 64
	reqs := make([]*kernel.GuardRequest, objs)
	for i := range reqs {
		obj := fmt.Sprintf("obj%d", i)
		cred := nal.Says{P: cli.Prin, F: nal.Pred{
			Name: "wantsAccess", Args: []nal.Term{nal.Str(obj)},
		}}
		reqs[i] = &kernel.GuardRequest{
			Kernel:  k,
			Subject: cli.Prin,
			Op:      "read",
			Obj:     obj,
			Goal:    goal,
			Proof:   proof.Assume(0, cred),
			Creds:   []kernel.Credential{{Inline: cred}},
		}
	}
	for _, r := range reqs {
		if d := g.Check(r); !d.Allow {
			b.Fatalf("warmup denied: %s", d.Reason)
		}
	}
	if hits, _, _ := g.Stats(); hits != 0 {
		// Each distinct request was inserted exactly once during warmup.
		b.Fatalf("warmup unexpectedly hit the cache")
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 17 // start each goroutine on a different object
		for pb.Next() {
			if d := g.Check(reqs[i%objs]); !d.Allow {
				b.Errorf("denied: %s", d.Reason)
				return
			}
			i++
		}
	})
	perSecond(b, "ops/s")
}

// parallelSyscall is the end-to-end multi-core proof for the dispatch
// pipeline: GOMAXPROCS goroutines, each its own process, issuing null
// system calls (with authorization on and the decision cache warm, unless
// opts turn both off). With no kernel-global lock on the path, the rate
// should grow with GOMAXPROCS (on multi-core hardware) instead of
// convoying.
func parallelSyscall(opts kernel.Options) func(b *testing.B) {
	return func(b *testing.B) {
		k := benchKernel(b, opts)
		const nprocs = 16
		procs := make([]*kernel.Process, nprocs)
		for i := range procs {
			p, err := k.CreateProcess(0, []byte(fmt.Sprintf("bench%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Null(); err != nil { // warm the decision cache
				b.Fatal(err)
			}
			procs[i] = p
		}
		b.ReportAllocs()
		b.ResetTimer()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			p := procs[int(next.Add(1))%nprocs]
			for pb.Next() {
				if err := p.Null(); err != nil {
					b.Error(err)
					return
				}
			}
		})
		perSecond(b, "ops/s")
	}
}

// parallelIPC drives the same pipeline through Kernel.Call: many
// client processes against one server port, decision cache warm, channel
// enforcement on so the capability check is also on the measured path.
func parallelIPC(b *testing.B) {
	k := benchKernel(b, kernel.Options{})
	k.EnforceChannels(true)
	srv, err := k.CreateProcess(0, []byte("srv"))
	if err != nil {
		b.Fatal(err)
	}
	pt, err := k.CreatePort(srv, func(kernel.Caller, *kernel.Msg) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		b.Fatal(err)
	}

	const nprocs = 16
	const objs = 64
	procs := make([]*kernel.Process, nprocs)
	for i := range procs {
		p, err := k.CreateProcess(0, []byte(fmt.Sprintf("cli%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := k.GrantChannel(p, pt.ID); err != nil {
			b.Fatal(err)
		}
		procs[i] = p
	}
	msgs := make([]*kernel.Msg, objs)
	for i := range msgs {
		msgs[i] = &kernel.Msg{Op: "read", Obj: fmt.Sprintf("obj%d", i)}
	}
	for _, p := range procs { // warm every (subject, op, obj) decision
		for _, m := range msgs {
			if _, err := k.Call(p, pt.ID, m); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1))
		p := procs[id%nprocs]
		i := id * 17
		for pb.Next() {
			if _, err := k.Call(p, pt.ID, msgs[i%objs]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	perSecond(b, "ops/s")
}

// parallelDCache measures raw decision-cache throughput: a warm
// cache probed from GOMAXPROCS goroutines with an occasional insert, the
// kernel's per-syscall fast path.
func parallelDCache(b *testing.B) {
	c := kernel.NewDecisionCache(64)
	const objs = 128
	subj := "key:fp.boot.ipd.1"
	names := make([]string, objs)
	for i := range names {
		names[i] = fmt.Sprintf("obj%d", i)
		c.Insert(subj, "read", names[i], true)
	}
	obj := func(i int) string { return names[i%objs] }

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 31
		for pb.Next() {
			if i%64 == 0 {
				c.Insert(subj, "read", obj(i), true)
			} else if allow, ok := c.Lookup(subj, "read", obj(i)); !ok || !allow {
				b.Error("warm lookup missed")
				return
			}
			i++
		}
	})
	perSecond(b, "ops/s")
}
