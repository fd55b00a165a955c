// Allocation-regression pins for the dispatch hot paths. These are hard
// ceilings, not aspirations: a change that adds an allocation to a pinned
// path fails here before it shows up as a throughput regression in the
// Figure 4/Table 1 benchmarks.
package nexus

import (
	"testing"

	"repro/internal/disk"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/ledger"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/tpm"
)

// allocKernel boots a kernel for allocation measurement.
func allocKernel(t *testing.T, opts kernel.Options) *kernel.Kernel {
	return allocKernelTB(t, opts)
}

func allocKernelTB(t testing.TB, opts kernel.Options) *kernel.Kernel {
	t.Helper()
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(tp, disk.New(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestAllocSyscallBare pins the interposition-off, authorization-off
// syscall fast path (Table 1 "bare") at zero allocations per call.
func TestAllocSyscallBare(t *testing.T) {
	k := allocKernel(t, kernel.Options{NoInterposition: true, NoAuthorization: true})
	p, _ := k.CreateProcess(0, []byte("bench"))
	if err := p.Null(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Null() }); allocs != 0 {
		t.Errorf("bare null syscall allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocSyscallWarmAuthz pins the interposition-off syscall path with
// authorization on and the decision cache warm — the Figure 4 "system
// call" steady state — at zero allocations per call.
func TestAllocSyscallWarmAuthz(t *testing.T) {
	k := allocKernel(t, kernel.Options{NoInterposition: true})
	p, _ := k.CreateProcess(0, []byte("bench"))
	if err := p.Null(); err != nil { // warm the decision cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Null() }); allocs != 0 {
		t.Errorf("warm authorized null syscall allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocSyscallWarmLabelRef pins a warm local call whose proof cites
// a labelstore reference at zero allocations and zero guard upcalls: the
// kernel caches the decision stamped with its credential generation, and
// a hit on it compares that generation with two atomic loads.
func TestAllocSyscallWarmLabelRef(t *testing.T) {
	k := allocKernel(t, kernel.Options{NoInterposition: true})
	k.SetGuard(guard.New(k))
	srv, err := k.NewSession([]byte("srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := srv.SetGoal("read", "obj", nal.MustParse("?S says mayRead(?O)"), nil); err != nil {
		t.Fatal(err)
	}
	cli, err := k.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cli.Open(port)
	if err != nil {
		t.Fatal(err)
	}
	l, err := cli.Say(`mayRead("obj")`)
	if err != nil {
		t.Fatal(err)
	}
	cli.SetProof("read", "obj", proof.Assume(0, l.Formula),
		[]kernel.Credential{{Ref: &kernel.LabelRef{PID: cli.PID(), Handle: l.Handle}}})
	m := &kernel.Msg{Op: "read", Obj: "obj"}
	if _, err := cli.Call(ch, m); err != nil { // the one guard upcall
		t.Fatal(err)
	}
	upcalls := k.GuardUpcalls()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.Call(ch, m); err != nil {
			t.Fatal(err)
		}
	})
	if got := k.GuardUpcalls() - upcalls; got != 0 {
		t.Errorf("%d guard upcalls over the pinned run, want 0", got)
	}
	if allocs != 0 {
		t.Errorf("warm call on a label reference allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocSyscallWarmAuthzObserved pins the same warm authorized path
// with the full observability plane engaged — metrics always on, a durable
// ledger attached behind the audit log — at zero allocations. The plane's
// contract is that only miss and transport paths are instrumented; this is
// the test that holds it to that.
func TestAllocSyscallWarmAuthzObserved(t *testing.T) {
	k := allocKernel(t, kernel.Options{NoInterposition: true})
	l, err := ledger.New(ledger.NewMemBackend(), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.AttachLedger(l)
	p, _ := k.CreateProcess(0, []byte("bench"))
	if err := p.Null(); err != nil { // warm the decision cache
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() { p.Null() }); allocs != 0 {
		t.Errorf("warm authorized null syscall with metrics+ledger allocates %.1f objects/op, want 0", allocs)
	}
	if s := k.Metrics(); s.DCacheLookups == 0 {
		t.Error("metrics plane not live during the pinned run")
	}
}

// TestAllocMarshalMsg pins parameter marshaling — the per-call cost
// interpositioning imposes (§5.1) — at one allocation (the wire buffer).
func TestAllocMarshalMsg(t *testing.T) {
	m := &kernel.Msg{Op: "write", Obj: "file:/x", Args: [][]byte{make([]byte, 64)}}
	if allocs := testing.AllocsPerRun(200, func() { kernel.MarshalMsgForBench(m) }); allocs > 1 {
		t.Errorf("marshalMsg allocates %.1f objects/op, want ≤ 1", allocs)
	}
}

// abiAllocWorld wires a session world for allocation pinning: echo server,
// client channel handle, guard admitting everything cacheably, decision
// cache warm.
func abiAllocWorld(t *testing.T, opts kernel.Options) (*kernel.Session, kernel.Cap) {
	t.Helper()
	k := allocKernel(t, opts)
	k.SetGuard(guardAllowAll{})
	srv, err := k.NewSession([]byte("srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	id, _ := srv.PortOf(pc)
	cli, err := k.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := cli.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(ch, &kernel.Msg{Op: "read", Obj: "obj"}); err != nil {
		t.Fatal(err)
	}
	return cli, ch
}

// TestAllocSessionCallFast pins the Session.Call fast path — handle
// resolve + warm authorized dispatch, interposition off — at zero
// allocations: holding rights in a per-process handle table costs nothing
// on the warm path beyond one shard read-lock.
func TestAllocSessionCallFast(t *testing.T) {
	cli, ch := abiAllocWorld(t, kernel.Options{NoInterposition: true})
	m := &kernel.Msg{Op: "read", Obj: "obj"}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.Call(ch, m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Session.Call allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocSessionCallInterposed pins the full-pipeline Session.Call —
// channel check, warm authorization, interposition marshal — at zero
// allocations: the wire copy shown to monitors is appended into a pooled
// arena, so turning interposition on costs cycles, not garbage. This is
// the regression pin for the BENCH_net call/local row.
func TestAllocSessionCallInterposed(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	cli, ch := abiAllocWorld(t, kernel.Options{})
	m := &kernel.Msg{Op: "read", Obj: "obj", Args: [][]byte{make([]byte, 64)}}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.Call(ch, m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm interposed Session.Call allocates %.1f objects/op, want 0", allocs)
	}
}

// TestAllocBatchedSubmitWarm pins the warm batched-submit path: with the
// full pipeline on (interposition + warm authorization), per-op allocations
// at batch=64 must not exceed the single-call path — the batch marshals
// into a pooled arena and reuses the caller's completion queue, so batching
// can only shed allocation, never add it.
func TestAllocBatchedSubmitWarm(t *testing.T) {
	cli, ch := abiAllocWorld(t, kernel.Options{})
	arg := make([]byte, 64)
	m := &kernel.Msg{Op: "read", Obj: "obj", Args: [][]byte{arg}}
	single := testing.AllocsPerRun(200, func() {
		if _, err := cli.Call(ch, m); err != nil {
			t.Fatal(err)
		}
	})

	const depth = 64
	subs := make([]kernel.Sub, depth)
	for i := range subs {
		subs[i] = kernel.Sub{Cap: ch, Op: "read", Obj: "obj", Args: [][]byte{arg}}
	}
	comps := make([]kernel.Completion, 0, depth)
	batch := testing.AllocsPerRun(50, func() {
		out, err := cli.Submit(nil, subs, comps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Err != nil {
				t.Fatal(out[i].Err)
			}
		}
	})
	perOp := batch / depth
	// The batch entry's one reusable Msg escapes per Submit call; amortized
	// over the batch that is the only per-op cost batching may add to the
	// (now zero-alloc) single-call path.
	if perOp > single+1.0/depth {
		t.Errorf("batched submit allocates %.2f objects/op, single-call path %.2f", perOp, single)
	}
	// Absolute ceiling: the amortized batch path must stay near zero even
	// with marshaling on (one Msg escape + pool jitter across 64 ops).
	if perOp > 0.25 {
		t.Errorf("batched submit allocates %.2f objects/op, want ≤ 0.25", perOp)
	}
}

// remoteAllocWorld wires a two-kernel loopback world for transport
// allocation pinning: echo service exported by one node, dialed by the
// other, connection warm (handshake done, channel freelist and frame pool
// primed by a burst of calls).
func remoteAllocWorld(t testing.TB) (*kernel.Session, kernel.Cap) {
	return remoteAllocWorldOver(t, kernel.NewLoopbackTransport(), "alloc")
}

// remoteAllocWorldOver is remoteAllocWorld over any transport; addr is the
// listen address (the dial goes to the address the listener reports).
func remoteAllocWorldOver(t testing.TB, tr kernel.Transport, addr string) (*kernel.Session, kernel.Cap) {
	w := dialAllocWorld(t, tr, addr, func(*kernel.Kernel) kernel.Guard { return guardAllowAll{} })
	w.warm(t, &kernel.Msg{Op: "read", Obj: "obj"})
	return w.cli, w.rc
}

// allocWorld is a two-kernel world: srv serves the echo port on the
// serving kernel, cli is connected to it through peer as rc.
type allocWorld struct {
	srv, cli *kernel.Session
	kCli     *kernel.Kernel
	peer     *kernel.Peer
	rc       kernel.Cap
}

// dialAllocWorld builds an allocWorld over tr whose serving kernel decides
// with the guard newGuard returns.
func dialAllocWorld(t testing.TB, tr kernel.Transport, addr string, newGuard func(*kernel.Kernel) kernel.Guard) *allocWorld {
	t.Helper()
	kSrv := allocKernelTB(t, kernel.Options{})
	kSrv.SetGuard(newGuard(kSrv))
	kCli := allocKernelTB(t, kernel.Options{})
	srv, err := kSrv.NewSession([]byte("srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	nSrv := kernel.NewNode(kSrv)
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	nSrv.Serve(l)
	t.Cleanup(nSrv.Close)
	if err := nSrv.Export("echo", port); err != nil {
		t.Fatal(err)
	}
	nCli := kernel.NewNode(kCli)
	t.Cleanup(nCli.Close)
	peer, err := nCli.Dial(tr, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := kCli.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cli.Connect(peer, "echo")
	if err != nil {
		t.Fatal(err)
	}
	return &allocWorld{srv: srv, cli: cli, kCli: kCli, peer: peer, rc: rc}
}

// warm primes the connection with a burst of m.
func (w *allocWorld) warm(t testing.TB, m *kernel.Msg) {
	t.Helper()
	for i := 0; i < 64; i++ {
		if _, err := w.cli.CallRemote(w.rc, m); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAllocRemoteCallWarm pins the warm cross-node call over the loopback
// transport at ≤2 allocations per op, both endpoints included. The request
// frame stages in a pooled egress buffer, the pending-call channel comes
// from the connection's freelist, and the request buffer recirculates
// through the server's ingress arena back to the frame pool; the only
// inherent allocation left is the response frame, which escapes to the
// caller. This is the regression pin for the BENCH_net
// call/remote-loopback row and the static //nexus:noalloc egress roots.
func TestAllocRemoteCallWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("cross-goroutine pool reuse is perturbed under the race detector")
	}
	cli, rc := remoteAllocWorld(t)
	m := &kernel.Msg{Op: "read", Obj: "obj"}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.CallRemote(rc, m); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("warm remote call allocates %.1f objects/op, want ≤ 2", allocs)
	}
}

// TestAllocRemoteCallWarmTCP is TestAllocRemoteCallWarm over TCP on
// 127.0.0.1, both endpoints included, at the same ≤2 ceiling: ingress is
// one read into a pooled receive buffer, split into pooled arena buffers,
// and the socket read and the netpoller park pass a callback bound once,
// so the response frame is again the only inherent allocation. The
// regression pin for the BENCH_net call/remote-tcp row.
func TestAllocRemoteCallWarmTCP(t *testing.T) {
	if raceEnabled {
		t.Skip("cross-goroutine pool reuse is perturbed under the race detector")
	}
	cli, rc := remoteAllocWorldOver(t, kernel.TCPTransport{}, "127.0.0.1:0")
	m := &kernel.Msg{Op: "read", Obj: "obj"}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.CallRemote(rc, m); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Errorf("warm TCP remote call allocates %.1f objects/op, want ≤ 2", allocs)
	}
}

// authzAllocWorld is a warm allocWorld whose serving kernel authorizes
// "bench guarded" through the generic guard — the BENCH_net
// call/remote-authz path. The client's statement crosses to the serving
// kernel as a label, and the proof cites it there by reference.
func authzAllocWorld(t *testing.T) (*allocWorld, *kernel.Msg) {
	w := dialAllocWorld(t, kernel.NewLoopbackTransport(), "alloc-authz",
		func(k *kernel.Kernel) kernel.Guard { return guard.New(k) })
	goal := nal.Says{P: nal.Key(w.kCli.NKFingerprint()), F: nal.Says{P: w.cli.Prin(), F: nal.Pred{Name: "mayBench"}}}
	if err := w.srv.SetGoal("bench", "guarded", goal, nil); err != nil {
		t.Fatal(err)
	}
	lbl, err := w.cli.Say("mayBench")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := w.cli.TransferLabelRemote(w.peer, lbl.Handle)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.cli.SetProofRemote(w.peer, "bench", "guarded", proof.Assume(0, goal),
		[]kernel.RemoteCred{{Ref: rl.Handle}}); err != nil {
		t.Fatal(err)
	}
	m := &kernel.Msg{Op: "bench", Obj: "guarded"}
	w.warm(t, m)
	return w, m
}

// pinRemoteAuthz runs the pinned remote call of authzAllocWorld and checks
// its allocations, both endpoints included, and the serving kernel's guard
// upcalls per call.
func pinRemoteAuthz(t *testing.T, w *allocWorld, m *kernel.Msg, upcallsPerCall uint64) {
	t.Helper()
	const runs = 200
	upcalls := w.srv.Kernel().GuardUpcalls()
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := w.cli.CallRemote(w.rc, m); err != nil {
			t.Fatal(err)
		}
	})
	// AllocsPerRun makes one warm-up call beyond runs.
	if got, want := w.srv.Kernel().GuardUpcalls()-upcalls, upcallsPerCall*(runs+1); got != want {
		t.Fatalf("%d guard upcalls over the pinned run, want %d", got, want)
	}
	if allocs > 1 {
		t.Errorf("warm authorized remote call allocates %.1f objects/op, want ≤ 1", allocs)
	}
}

// TestAllocRemoteCallAuthzWarm pins the warm authorized cross-node call:
// the serving kernel caches the decision on the label reference, stamped
// with its credential generation, so the call makes no guard upcall and
// no audit record, and what remains is the response frame.
func TestAllocRemoteCallAuthzWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("cross-goroutine pool reuse is perturbed under the race detector")
	}
	w, m := authzAllocWorld(t)
	pinRemoteAuthz(t, w, m, 0)
}

// TestAllocRemoteCallAuthzMiss pins the same call with the serving
// kernel's decision cache off — the BENCH_net call/remote-authz-miss
// path — so each call pays a guard upcall, a proof-cache hit and an audit
// record. The guard's hit (TestAllocGuardProofCacheHit) and the audit
// hashing allocate nothing, and the kernel's upcall request comes from a
// pool; what remains is again the response frame.
func TestAllocRemoteCallAuthzMiss(t *testing.T) {
	if raceEnabled {
		t.Skip("cross-goroutine pool reuse is perturbed under the race detector")
	}
	w, m := authzAllocWorld(t)
	w.srv.Kernel().DCache().Disable()
	pinRemoteAuthz(t, w, m, 1)
}

// TestAllocSubmitRemoteBatchWarm pins the batched remote submission path
// at effectively zero allocations per operation: the batch frame builds in
// one pooled buffer whose ownership transfers to the egress combiner, the
// completion queue is reused, and per-batch costs (the sent-index slice,
// the response frame) amortize across the 64 operations. This is the
// regression pin for the BENCH_net submit-remote/batch64 row.
func TestAllocSubmitRemoteBatchWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("cross-goroutine pool reuse is perturbed under the race detector")
	}
	cli, rc := remoteAllocWorld(t)
	const depth = 64
	subs := make([]kernel.Sub, depth)
	for i := range subs {
		subs[i] = kernel.Sub{Cap: rc, Op: "read", Obj: "obj", Tag: uint64(i)}
	}
	comps := make([]kernel.Completion, 0, depth)
	run := func() {
		out, err := cli.SubmitRemote(nil, rc, subs, comps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Err != nil {
				t.Fatal(out[i].Err)
			}
		}
	}
	run() // warm the batch path (sent-slice sizing, response pooling)
	perOp := testing.AllocsPerRun(50, run) / depth
	if perOp > 0.25 {
		t.Errorf("batched remote submit allocates %.2f objects/op, want ≤ 0.25", perOp)
	}
}

// TestAllocCompiledProofCheck pins the compiled proof checker's warm path
// at zero allocations — the tentpole property that rules out text parsing
// and canonical-string comparison on authorization misses.
func TestAllocCompiledProofCheck(t *testing.T) {
	pf, goal, creds := fig5Proof("delegate", 12)
	env := &proof.Env{Credentials: creds}
	if _, err := proof.Check(pf, goal, env); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := proof.Check(pf, goal, env); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("compiled proof check allocates %.1f objects/op, want 0", allocs)
	}
}
