// Benchmarks for the distributed attestation plane: cross-node calls over
// the loopback and TCP transports against the same call made locally,
// connection lifetime and footprint, credential-backed remote
// authorization, label transfer, and the wire codec.
package nexus

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// serveEcho exports port as "echo" from a new node of kStore listening at
// addr over tr, and dials it from a new node of kFront. stop closes both
// nodes.
func serveEcho(b *testing.B, kStore, kFront *kernel.Kernel, port int, tr kernel.Transport, addr string) (peer *kernel.Peer, nFront *kernel.Node, stop func()) {
	b.Helper()
	nStore := kernel.NewNode(kStore)
	l, err := tr.Listen(addr)
	if err != nil {
		b.Fatal(err)
	}
	nStore.Serve(l)
	if err := nStore.Export("echo", port); err != nil {
		b.Fatal(err)
	}
	nFront = kernel.NewNode(kFront)
	if peer, err = nFront.Dial(tr, l.Addr()); err != nil {
		b.Fatal(err)
	}
	return peer, nFront, func() { nFront.Close(); nStore.Close() }
}

// callRemote measures one lockstep remote call of m through rc per
// iteration.
func callRemote(b *testing.B, name string, cli *kernel.Session, rc kernel.Cap, m *kernel.Msg) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cli.CallRemote(rc, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// pipeline overlaps remote calls from 16 goroutines per GOMAXPROCS inside
// the connection's in-flight window instead of waiting lockstep.
func pipeline(b *testing.B, cli *kernel.Session, rc kernel.Cap, m *kernel.Msg) {
	b.SetParallelism(16)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := cli.CallRemote(rc, m); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// submitRemote measures batched remote submission, 64 ops per wire
// exchange; each iteration is one operation, so the figures are per op.
func submitRemote(b *testing.B, name string, cli *kernel.Session, rc kernel.Cap) {
	const depth = 64
	subs := make([]kernel.Sub, depth)
	for i := range subs {
		subs[i] = kernel.Sub{Cap: rc, Op: "read", Obj: "obj", Tag: uint64(i)}
	}
	var comps []kernel.Completion
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for done := 0; done < b.N; done += depth {
			var err error
			if comps, err = cli.SubmitRemote(nil, rc, subs[:min(depth, b.N-done)], comps); err != nil {
				b.Fatal(err)
			}
			for j := range comps {
				if comps[j].Err != nil {
					b.Fatal(comps[j].Err)
				}
			}
		}
	})
}

// BenchmarkNet is BENCH_net.json: an echo service on the serving kernel
// (guarded, no goal: warm default-allow decisions) reached locally, from a
// second kernel over loopback, and over TCP. The TCP rows run over their
// own nodes, closed when they finish.
func BenchmarkNet(b *testing.B) {
	kStore := benchKernel(b, kernel.Options{})
	kStore.SetGuard(guard.New(kStore))
	kFront := benchKernel(b, kernel.Options{})
	srv, err := kStore.NewSession([]byte("net-srv"))
	if err != nil {
		b.Fatal(err)
	}
	// The reply buffer is preallocated: the rows measure the dispatch and
	// transport planes, not a per-call string conversion in the handler.
	okReply := []byte("ok")
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return okReply, nil })
	if err != nil {
		b.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	cli, err := kFront.NewSession([]byte("net-cli"))
	if err != nil {
		b.Fatal(err)
	}
	lt := kernel.NewLoopbackTransport()
	peer, nFront, stop := serveEcho(b, kStore, kFront, port, lt, "bench")
	b.Cleanup(stop)
	rc, err := cli.Connect(peer, "echo")
	if err != nil {
		b.Fatal(err)
	}
	m := &kernel.Msg{Op: "read", Obj: "obj"}

	b.Run("call/local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Call(pc, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	callRemote(b, "call/remote-loopback", cli, rc, m)
	b.Run("call/remote-pipelined", func(b *testing.B) {
		b.ReportAllocs()
		pipeline(b, cli, rc, m)
	})
	submitRemote(b, "submit-remote/batch64", cli, rc)

	// Connection churn: a full dial+close cycle. The handshake dominates
	// (two Ed25519 signatures, an X25519 exchange); the runtime adds only
	// a goroutine per end, so this row is also the shed-recovery rate.
	b.Run("conn/churn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := nFront.Dial(lt, "bench")
			if err != nil {
				b.Fatal(err)
			}
			p.Close()
		}
	})

	// Idle-connection memory: b.N established connections held open, and
	// per connection the settled heap growth (B/conn), the growth of
	// goroutine stacks (stack-B/conn) and the goroutines held; ns/op is the
	// dial. Loopback keeps both endpoints in this process, so the figures
	// cover a client Peer plus a serverConn together, each waiting on its
	// own goroutine (TestTransportGoroutineFootprint): the whole marginal
	// footprint of an idle connection.
	b.Run("conn/idle-mem", func(b *testing.B) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		g0 := runtime.NumGoroutine()
		peers := make([]*kernel.Peer, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := nFront.Dial(lt, "bench")
			if err != nil {
				b.Fatal(err)
			}
			peers = append(peers, p)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		g1 := runtime.NumGoroutine()
		b.ReportMetric(float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc))/float64(b.N), "B/conn")
		b.ReportMetric(float64(int64(m1.StackInuse)-int64(m0.StackInuse))/float64(b.N), "stack-B/conn")
		b.ReportMetric(float64(g1-g0)/float64(b.N), "goroutines/conn")
		for _, p := range peers {
			p.Close()
		}
	})

	tpeer, _, stopTCP := serveEcho(b, kStore, kFront, port, kernel.TCPTransport{}, "127.0.0.1:0")
	tc, err := cli.Connect(tpeer, "echo")
	if err != nil {
		b.Fatal(err)
	}
	callRemote(b, "call/remote-tcp", cli, tc, m)
	// Netpoller wakeups per lockstep TCP request, both kernels summed: the
	// serving end wakes for the request and the dialed end for its response,
	// so a request should cost 2.
	b.Run("tcp/wakeups-per-req", func(b *testing.B) {
		wakeups := func() uint64 { return kStore.Metrics().NetPollWakeups + kFront.Metrics().NetPollWakeups }
		w0 := wakeups()
		for i := 0; i < b.N; i++ {
			if _, err := cli.CallRemote(tc, m); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(wakeups()-w0)/float64(b.N), "wakeups/req")
	})
	submitRemote(b, "call/remote-tcp-batch64", cli, tc)
	// Egress coalescing: a pipelined burst overlaps many requests in
	// flight, so responses produced within one read burst leave in one
	// write. 1 frame/flush is lockstep.
	b.Run("egress/coalesce", func(b *testing.B) {
		egress := func() (flushes, frames uint64) {
			s0, s1 := kStore.Metrics(), kFront.Metrics()
			return s0.NetEgressFlushes + s1.NetEgressFlushes, s0.NetEgressCoalescedFrames + s1.NetEgressCoalescedFrames
		}
		fl0, fr0 := egress()
		pipeline(b, cli, tc, m)
		fl1, fr1 := egress()
		b.ReportMetric(float64(fr1-fr0)/float64(fl1-fl0), "frames/flush")
	})
	stopTCP()

	// Credential-backed authorization on the serving kernel: a goal
	// demanding the client's attested statement, the proof bound remotely,
	// and decisions uncacheable (reference credential), so every call
	// crosses the guard.
	goal := nal.Says{P: nal.Key(kFront.NKFingerprint()), F: nal.Says{P: cli.Prin(), F: nal.Pred{Name: "mayBench"}}}
	if err := srv.SetGoal("bench", "guarded", goal, nil); err != nil {
		b.Fatal(err)
	}
	lbl, err := cli.Say("mayBench")
	if err != nil {
		b.Fatal(err)
	}
	rl, err := cli.TransferLabelRemote(peer, lbl.Handle)
	if err != nil {
		b.Fatal(err)
	}
	if err := cli.SetProofRemote(peer, "bench", "guarded", proof.Assume(0, goal),
		[]kernel.RemoteCred{{Ref: rl.Handle}}); err != nil {
		b.Fatal(err)
	}
	gm := &kernel.Msg{Op: "bench", Obj: "guarded"}
	if _, err := cli.CallRemote(rc, gm); err != nil {
		b.Fatal(err)
	}
	callRemote(b, "call/remote-authz", cli, rc, gm)

	// Label transfer: externalize (Ed25519 sign) + ship + verified ingress.
	// Labels distinct across all runs defeat the verify cache, the hash-cons
	// table and the wire remap tables, so this is the cold path.
	fresh := 0
	b.Run("xfer/label", func(b *testing.B) {
		b.ReportAllocs()
		labels := make([]int, b.N)
		for i := range labels {
			l, err := cli.Say(fmt.Sprintf("attested(%d)", fresh))
			if err != nil {
				b.Fatal(err)
			}
			fresh++
			labels[i] = l.Handle
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cli.TransferLabelRemote(peer, labels[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Warm transfer: the same label re-crosses the connection. Egress
	// reuses the memoized certificate, ingress authenticates by session-key
	// HMAC against the connection's re-attestation table — no public-key
	// operation on either side.
	warmLbl, err := cli.Say("attestedWarm")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := cli.TransferLabelRemote(peer, warmLbl.Handle); err != nil {
		b.Fatal(err)
	}
	b.Run("xfer/label-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cli.TransferLabelRemote(peer, warmLbl.Handle); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Wire codec on a credential-shaped formula: a keyed speaker chain over
	// a predicate, the kind that crosses nodes in proofs. Decoding an
	// already-seen formula is an intern lookup with zero allocations (also
	// pinned by TestWireWarmDecodeZeroAlloc in internal/nal).
	f, err := nal.Parse(`key:deadbeef.boot77.ipd.12 says mayArchive(walls, "alice", 42)`)
	if err != nil {
		b.Fatal(err)
	}
	fid, ok := nal.IDOf(f)
	if !ok {
		b.Fatal("cons table saturated")
	}
	enc := nal.NewWireEncoder()
	cold, err := enc.AppendFormula(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	warm, err := enc.AppendFormula(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	dec := nal.NewWireDecoder()
	if _, _, err := dec.DecodeFormula(cold); err != nil {
		b.Fatal(err)
	}
	b.Run("wire/encode-warm", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 64)
		for i := 0; i < b.N; i++ {
			buf = enc.AppendFormulaID(buf[:0], fid)
		}
	})
	b.Run("wire/decode-warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := dec.DecodeFormula(warm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire/decode-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := nal.NewWireDecoder().DecodeFormula(cold); err != nil {
				b.Fatal(err)
			}
		}
	})
}
