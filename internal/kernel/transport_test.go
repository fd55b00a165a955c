package kernel_test

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/disk"
	"repro/internal/guard"
	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
	"repro/internal/tpm"
)

// twoNodes boots two kernels and connects them over the loopback
// transport: front (the dialing side) and store (the serving side, with a
// guard.Generic installed as default guard).
type twoNodes struct {
	front, store   *kernel.Kernel
	nFront, nStore *kernel.Node
	peer           *kernel.Peer
	lt             *kernel.LoopbackTransport
}

func bootNode(t *testing.T) *kernel.Kernel {
	t.Helper()
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernel.Boot(tp, disk.New(), kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func newTwoNodes(t *testing.T) *twoNodes {
	t.Helper()
	w := &twoNodes{front: bootNode(t), store: bootNode(t), lt: kernel.NewLoopbackTransport()}
	w.store.SetGuard(guard.New(w.store))
	w.nStore = kernel.NewNode(w.store)
	l, err := w.lt.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	w.nStore.Serve(l)
	w.nFront = kernel.NewNode(w.front)
	w.peer, err = w.nFront.Dial(w.lt, "store")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.nFront.Close()
		w.nStore.Close()
	})
	return w
}

// TestPeerIdentity: the handshake authenticates the remote kernel as
// key:<NK-fp>.<boot-id> in both directions.
func TestPeerIdentity(t *testing.T) {
	w := newTwoNodes(t)
	want := nal.SubOf(nal.Key(w.store.NKFingerprint()), w.store.BootID)
	if !w.peer.KernelPrin().EqualPrin(want) {
		t.Fatalf("peer principal %v, want %v", w.peer.KernelPrin(), want)
	}
	if w.peer.EKFingerprint() != w.store.TPM.EKFingerprint() {
		t.Fatal("peer EK fingerprint mismatch")
	}
}

// TestTrustEKAllowlist: a non-empty allowlist rejects unknown platforms.
func TestTrustEKAllowlist(t *testing.T) {
	front, store := bootNode(t), bootNode(t)
	lt := kernel.NewLoopbackTransport()
	nStore := kernel.NewNode(store)
	nStore.TrustEK("no-such-platform")
	l, _ := lt.Listen("store")
	nStore.Serve(l)
	defer nStore.Close()
	nFront := kernel.NewNode(front)
	defer nFront.Close()
	if _, err := nFront.Dial(lt, "store"); err == nil {
		t.Fatal("dial to a node that does not trust our EK succeeded")
	}
	nStore.TrustEK(front.TPM.EKFingerprint())
	if _, err := nFront.Dial(lt, "store"); err != nil {
		t.Fatalf("dial after allowlisting failed: %v", err)
	}
}

// TestRemoteCallThroughDispatch: a cross-node call runs the dispatch
// pipeline on both kernels — the local forwarder port's interposition
// chain sees the egress, the serving kernel's chain sees the ingress with
// the caller attributed to its remote (proxy) principal — and batch
// submission through a remote handle works unchanged. CallRemote and each
// SubmitRemote entry show the serving kernel's monitors the message's
// canonical wire form, and get the same verdicts and OnReturn rewrites.
func TestRemoteCallThroughDispatch(t *testing.T) {
	w := newTwoNodes(t)

	srv, err := w.store.NewSession([]byte("storage-srv"))
	if err != nil {
		t.Fatal(err)
	}
	var srvCaller atomic.Value
	pc, err := srv.Listen(func(from kernel.Caller, m *kernel.Msg) ([]byte, error) {
		srvCaller.Store(from.Prin.String())
		return append([]byte("echo:"), m.Args[0]...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := w.nStore.Export("echo", port); err != nil {
		t.Fatal(err)
	}

	cli, err := w.front.NewSession([]byte("front-cli"))
	if err != nil {
		t.Fatal(err)
	}
	var ingress, egress atomic.Int64
	var seenMu sync.Mutex
	var seen [][]byte // the wire bytes the serving kernel's monitor was shown
	takeSeen := func() [][]byte {
		seenMu.Lock()
		defer seenMu.Unlock()
		s := seen
		seen = nil
		return s
	}
	ingressMon := kernel.FuncMonitor{
		Call: func(_ kernel.Caller, m *kernel.Msg, wire []byte) kernel.Verdict {
			ingress.Add(1)
			seenMu.Lock()
			seen = append(seen, append([]byte(nil), wire...))
			seenMu.Unlock()
			if m.Obj == "blocked" {
				return kernel.VerdictBlock
			}
			return kernel.VerdictAllow
		},
		Ret: func(_ kernel.Caller, m *kernel.Msg, out []byte) []byte {
			if m.Obj == "rewrite" {
				return []byte("rewritten")
			}
			return out
		},
	}
	if _, err := w.store.Interpose(mustProc(t, w.store, srv.PID()), port, ingressMon); err != nil {
		t.Fatal(err)
	}

	c, err := cli.Connect(w.peer, "echo")
	if err != nil {
		t.Fatal(err)
	}
	localPort, _ := cli.PortOf(c)
	if _, err := w.front.Interpose(mustProc(t, w.front, cli.PID()), localPort, countMonitor(&egress)); err != nil {
		t.Fatal(err)
	}

	out, err := cli.CallRemote(c, &kernel.Msg{Op: "read", Obj: "obj", Args: [][]byte{[]byte("hi")}})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Fatalf("remote call returned %q", out)
	}
	if egress.Load() != 1 || ingress.Load() != 1 {
		t.Fatalf("interposition chains saw egress=%d ingress=%d calls, want 1/1", egress.Load(), ingress.Load())
	}
	// The serving kernel attributed the call to the caller's global
	// principal: key:<frontNK>.<frontBoot>.ipd.<pid>.
	wantPrin := nal.SubChain(
		nal.SubOf(nal.Key(w.front.NKFingerprint()), w.front.BootID),
		"ipd", strconv.Itoa(cli.PID())).String()
	if got := srvCaller.Load(); got != wantPrin {
		t.Fatalf("server saw caller %v, want %s", got, wantPrin)
	}

	// Plain Session.Call works on remote handles too.
	if out, err := cli.Call(c, &kernel.Msg{Op: "read", Obj: "obj", Args: [][]byte{[]byte("2")}}); err != nil || string(out) != "echo:2" {
		t.Fatalf("Session.Call on remote handle: %q, %v", out, err)
	}

	// Batched submission through the remote handle.
	subs := []kernel.Sub{
		{Cap: c, Op: "read", Obj: "obj", Args: [][]byte{[]byte("a")}, Tag: 1},
		{Cap: c, Op: "read", Obj: "obj", Args: [][]byte{[]byte("b")}, Tag: 2},
	}
	comps, err := cli.Submit(nil, subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"echo:a", "echo:b"} {
		if comps[i].Err != nil || string(comps[i].Out) != want {
			t.Fatalf("batched remote op %d: %q, %v", i, comps[i].Out, comps[i].Err)
		}
	}

	// Both remote paths: the monitor sees the canonical wire form, a block
	// verdict fails the operation with EACCES, and a rewrite reaches the
	// caller.
	for _, tc := range []struct {
		obj, want string
		denied    bool
	}{
		{obj: "obj", want: "echo:x"},
		{obj: "blocked", denied: true},
		{obj: "rewrite", want: "rewritten"},
	} {
		m := &kernel.Msg{Op: "read", Obj: tc.obj, Args: [][]byte{[]byte("x")}}
		wire := kernel.MarshalMsgForBench(m)
		check := func(path string, out []byte, err error) {
			t.Helper()
			if tc.denied {
				if !errors.Is(err, kernel.ErrDenied) {
					t.Fatalf("%s %s: got %q, %v; want EACCES", path, tc.obj, out, err)
				}
			} else if err != nil || string(out) != tc.want {
				t.Fatalf("%s %s: got %q, %v; want %q", path, tc.obj, out, err, tc.want)
			}
			if got := takeSeen(); len(got) != 1 || !bytes.Equal(got[0], wire) {
				t.Fatalf("%s %s: serving monitor saw %q, want [%q]", path, tc.obj, got, wire)
			}
		}
		takeSeen()
		out, err := cli.CallRemote(c, m)
		check("CallRemote", out, err)
		comps, err := cli.SubmitRemote(nil, c, []kernel.Sub{{Cap: c, Op: m.Op, Obj: m.Obj, Args: m.Args}}, nil)
		if err != nil {
			t.Fatalf("SubmitRemote %s: %v", tc.obj, err)
		}
		check("SubmitRemote", comps[0].Out, comps[0].Err)
	}
}

// TestRemoteErrorParity: a handler's error reaches the caller with the same
// errno class through a local Session.Call, CallRemote and a one-entry
// SubmitRemote — an ABI error, a handler error wrapping a kernel sentinel,
// and a plain handler error, which both remote paths wrap in
// ErrRemoteHandler.
func TestRemoteErrorParity(t *testing.T) {
	w := newTwoNodes(t)
	srv, err := w.store.NewSession([]byte("parity-srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(_ kernel.Caller, m *kernel.Msg) ([]byte, error) {
		switch m.Obj {
		case "nolabel":
			return nil, &kernel.Error{Errno: kernel.ENOLABEL, Op: m.Op, Detail: "stale label"}
		case "quota":
			return nil, fmt.Errorf("quota: %w", kernel.ErrDenied)
		}
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := w.nStore.Export("parity", port); err != nil {
		t.Fatal(err)
	}
	local, err := w.store.NewSession([]byte("parity-local"))
	if err != nil {
		t.Fatal(err)
	}
	lc, err := local.Open(port)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := w.front.NewSession([]byte("parity-cli"))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cli.Connect(w.peer, "parity")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		obj  string
		want kernel.Errno
	}{
		{"nolabel", kernel.ENOLABEL},
		{"quota", kernel.EACCES},
		{"boom", kernel.EOK},
	} {
		m := &kernel.Msg{Op: "read", Obj: tc.obj}
		_, localErr := local.Call(lc, m)
		_, callErr := cli.CallRemote(rc, m)
		comps, err := cli.SubmitRemote(nil, rc, []kernel.Sub{{Cap: rc, Op: m.Op, Obj: m.Obj}}, nil)
		if err != nil {
			t.Fatalf("%s: SubmitRemote: %v", tc.obj, err)
		}
		for path, err := range map[string]error{"Session.Call": localErr, "CallRemote": callErr, "SubmitRemote": comps[0].Err} {
			if err == nil {
				t.Fatalf("%s over %s: no error", tc.obj, path)
			}
			if got := kernel.ErrnoOf(err); got != tc.want {
				t.Errorf("%s over %s: errno %v (%v), want %v", tc.obj, path, got, err, tc.want)
			}
			if path != "Session.Call" && tc.want == kernel.EOK && !errors.Is(err, kernel.ErrRemoteHandler) {
				t.Errorf("%s over %s: %v does not wrap ErrRemoteHandler", tc.obj, path, err)
			}
		}
	}
}

// TestRemoteEgressInterposition: a monitor bound to a remote handle's
// forwarder port on the dialing kernel governs every egress path alike. On
// CallRemote, Session.Call, a one-entry Session.Submit and a one-entry
// SubmitRemote, a blocked call fails with EACCES without reaching the
// serving handler, an OnCall rewrite of the message is what the serving
// handler sees — also when the rewrite lengthens the object and points
// the arguments into the wire copy the monitor was shown — and the
// OnReturn rewrite reaches the caller.
func TestRemoteEgressInterposition(t *testing.T) {
	w := newTwoNodes(t)
	srv, err := w.store.NewSession([]byte("egress-srv"))
	if err != nil {
		t.Fatal(err)
	}
	var handled atomic.Int64
	pc, err := srv.Listen(func(_ kernel.Caller, m *kernel.Msg) ([]byte, error) {
		handled.Add(1)
		out := "saw:" + m.Obj
		for _, a := range m.Args {
			out += ":" + string(a)
		}
		return []byte(out), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := w.nStore.Export("egress", port); err != nil {
		t.Fatal(err)
	}
	cli, err := w.front.NewSession([]byte("egress-cli"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cli.Connect(w.peer, "egress")
	if err != nil {
		t.Fatal(err)
	}
	fwd, _ := cli.PortOf(c)
	mon := kernel.FuncMonitor{
		Call: func(_ kernel.Caller, m *kernel.Msg, wire []byte) kernel.Verdict {
			switch m.Obj {
			case "blocked":
				return kernel.VerdictBlock
			case "secret":
				m.Obj = "redacted"
			case "widen":
				dm, err := kernel.DecodeWire(wire)
				if err != nil {
					return kernel.VerdictBlock
				}
				m.Obj, m.Args = "widened-object", dm.Args
			}
			return kernel.VerdictAllow
		},
		Ret: func(_ kernel.Caller, _ *kernel.Msg, out []byte) []byte {
			return append([]byte("ret:"), out...)
		},
	}
	if _, err := w.front.Interpose(mustProc(t, w.front, cli.PID()), fwd, mon); err != nil {
		t.Fatal(err)
	}

	paths := []struct {
		name string
		call func(obj string, args [][]byte) ([]byte, error)
	}{
		{"CallRemote", func(obj string, args [][]byte) ([]byte, error) {
			return cli.CallRemote(c, &kernel.Msg{Op: "read", Obj: obj, Args: args})
		}},
		{"Session.Call", func(obj string, args [][]byte) ([]byte, error) {
			return cli.Call(c, &kernel.Msg{Op: "read", Obj: obj, Args: args})
		}},
		{"Session.Submit", func(obj string, args [][]byte) ([]byte, error) {
			comps, err := cli.Submit(nil, []kernel.Sub{{Cap: c, Op: "read", Obj: obj, Args: args}}, nil)
			if err != nil {
				return nil, err
			}
			return comps[0].Out, comps[0].Err
		}},
		{"SubmitRemote", func(obj string, args [][]byte) ([]byte, error) {
			comps, err := cli.SubmitRemote(nil, c, []kernel.Sub{{Cap: c, Op: "read", Obj: obj, Args: args}}, nil)
			if err != nil {
				return nil, err
			}
			return comps[0].Out, comps[0].Err
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			before := handled.Load()
			if out, err := p.call("blocked", nil); !errors.Is(err, kernel.ErrDenied) {
				t.Errorf("blocked: got %q, %v; want EACCES", out, err)
			}
			if n := handled.Load() - before; n != 0 {
				t.Errorf("blocked: the serving handler ran %d times, want 0", n)
			}
			if out, err := p.call("secret", nil); err != nil || string(out) != "ret:saw:redacted" {
				t.Errorf("secret: got %q, %v; want %q", out, err, "ret:saw:redacted")
			}
			want := "ret:saw:widened-object:first:second"
			if out, err := p.call("widen", [][]byte{[]byte("first"), []byte("second")}); err != nil || string(out) != want {
				t.Errorf("widen: got %q, %v; want %q", out, err, want)
			}
			if n := handled.Load() - before; n != 2 {
				t.Errorf("the serving handler ran %d times, want 2", n)
			}
		})
	}
}

func mustProc(t *testing.T, k *kernel.Kernel, pid int) *kernel.Process {
	t.Helper()
	p, ok := k.Lookup(pid)
	if !ok {
		t.Fatalf("no process %d", pid)
	}
	return p
}

func countMonitor(n *atomic.Int64) kernel.FuncMonitor {
	return kernel.FuncMonitor{
		Call: func(from kernel.Caller, m *kernel.Msg, wire []byte) kernel.Verdict {
			n.Add(1)
			return kernel.VerdictAllow
		},
	}
}

// TestRemoteCredentialAuthorization is the acceptance round-trip: a
// credential-backed authorization crosses two kernels over the loopback
// transport through the standard dispatch pipeline. The client utters a
// label, externalizes it under its node's TPM-rooted key, ships it, binds
// a proof to the access tuple on the serving kernel, and only then may
// call; a session without the credential is denied with the errno class
// intact across the wire.
func TestRemoteCredentialAuthorization(t *testing.T) {
	w := newTwoNodes(t)

	srv, err := w.store.NewSession([]byte("wallstore"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(from kernel.Caller, m *kernel.Msg) ([]byte, error) {
		return []byte("wall-of-" + m.Obj), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := w.nStore.Export("wallstore", port); err != nil {
		t.Fatal(err)
	}

	cli, err := w.front.NewSession([]byte("front-cli"))
	if err != nil {
		t.Fatal(err)
	}

	// The goal on the serving kernel demands the client's attested
	// statement: key:<frontNK> says (<client global prin> says mayArchive).
	frontNK := w.front.NKFingerprint()
	cliPrin := nal.SubChain(nal.SubOf(nal.Key(frontNK), w.front.BootID), "ipd", strconv.Itoa(cli.PID()))
	goal := nal.Says{P: nal.Key(frontNK), F: nal.Says{P: cliPrin, F: nal.Pred{Name: "mayArchive"}}}
	if err := srv.SetGoal("get", "/walls", goal, nil); err != nil {
		t.Fatal(err)
	}

	// Client side: say, attest, transfer, bind the proof remotely.
	lbl, err := cli.Say("mayArchive")
	if err != nil {
		t.Fatal(err)
	}
	rl, err := cli.TransferLabelRemote(w.peer, lbl.Handle)
	if err != nil {
		t.Fatalf("label transfer: %v", err)
	}
	if err := cli.SetProofRemote(w.peer, "get", "/walls", proof.Assume(0, goal),
		[]kernel.RemoteCred{{Ref: rl.Handle}}); err != nil {
		t.Fatalf("remote setproof: %v", err)
	}

	c, err := cli.Connect(w.peer, "wallstore")
	if err != nil {
		t.Fatal(err)
	}
	up0 := w.store.GuardUpcalls()
	out, err := cli.CallRemote(c, &kernel.Msg{Op: "get", Obj: "/walls"})
	if err != nil {
		t.Fatalf("credential-backed remote call denied: %v", err)
	}
	if string(out) != "wall-of-/walls" {
		t.Fatalf("remote call returned %q", out)
	}
	if w.store.GuardUpcalls() == up0 {
		t.Fatal("authorization did not cross the serving kernel's guard")
	}

	// A second session without the credential is denied; the EACCES class
	// survives the wire.
	other, err := w.front.NewSession([]byte("front-other"))
	if err != nil {
		t.Fatal(err)
	}
	oc, err := other.Connect(w.peer, "wallstore")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.CallRemote(oc, &kernel.Msg{Op: "get", Obj: "/walls"}); !errors.Is(err, kernel.ErrDenied) {
		t.Fatalf("uncredentialed remote call: want ErrDenied, got %v", err)
	} else if kernel.ErrnoOf(err) != kernel.EACCES {
		t.Fatalf("errno class lost across the wire: %v", err)
	}

	// Warm path: the certificate was verified once; re-calls hit the
	// pre-verification cache on the serving kernel.
	s0 := w.store.CertCache().Stats()
	for i := 0; i < 3; i++ {
		if _, err := cli.CallRemote(c, &kernel.Msg{Op: "get", Obj: "/walls"}); err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
	}
	s1 := w.store.CertCache().Stats()
	if s1.Misses != s0.Misses {
		t.Fatalf("warm remote calls re-verified certificates: %+v → %+v", s0, s1)
	}
}

// TestCrossNodeSpeakerSpoofRejected is the spoofing regression: a node
// whose NK signs a label attributing a statement to a principal not rooted
// under that node's kernel principal must have the transfer rejected at
// ingress — before anything reaches a labelstore — as must a label signed
// by a key other than the connection's authenticated NK.
func TestCrossNodeSpeakerSpoofRejected(t *testing.T) {
	w := newTwoNodes(t)
	cli, err := w.front.NewSession([]byte("mal"))
	if err != nil {
		t.Fatal(err)
	}

	// Case 1: signed by the front node's genuine NK, but the speaker
	// claims to be a process of the *store* kernel.
	victim := nal.SubChain(w.store.Prin, "ipd", "1")
	forged, err := cert.SignEd25519(cert.Statement{
		Speaker: victim.String(),
		Formula: "pwned",
		Serial:  1,
		Issued:  time.Now(),
	}, w.front.NK)
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.peer.TransferExternal(cli.PID(), &kernel.ExternalLabel{LabelCert: forged})
	if err == nil {
		t.Fatal("spoofed-speaker label accepted")
	}
	if !strings.Contains(err.Error(), "speaker") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// Case 2: speaker correctly rooted at the front node, but signed by a
	// key that is not the connection's authenticated NK.
	stranger := bootNode(t)
	honest := nal.SubChain(w.front.Prin, "ipd", strconv.Itoa(cli.PID()))
	foreign, err := cert.SignEd25519(cert.Statement{
		Speaker: honest.String(),
		Formula: "pwned",
		Serial:  2,
		Issued:  time.Now(),
	}, stranger.NK)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.peer.TransferExternal(cli.PID(), &kernel.ExternalLabel{LabelCert: foreign}); err == nil {
		t.Fatal("foreign-signed label accepted")
	}

	// The legitimate path still works.
	lbl, err := cli.Say("legit")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.TransferLabelRemote(w.peer, lbl.Handle); err != nil {
		t.Fatalf("legitimate transfer rejected: %v", err)
	}
}

// TestSetProofSaturationPoisonsPeer: a mid-frame codec failure (here,
// cons-table saturation after an earlier credential already committed
// per-connection dedup state) must not leave the connection with tables
// the two sides disagree on — the peer is poisoned and every later
// exchange fails with ErrTransportClosed instead of silently resolving
// backreferences to the wrong values.
func TestSetProofSaturationPoisonsPeer(t *testing.T) {
	w := newTwoNodes(t)
	cli, err := w.front.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cert.SignEd25519(cert.Statement{Formula: "whatever", Serial: 1, Issued: time.Now()}, w.front.NK)
	if err != nil {
		t.Fatal(err)
	}
	nal.SetConsLimit(0)
	defer nal.SetConsLimit(nal.DefaultConsLimit)
	fresh := nal.Pred{Name: "neverInternedBefore_" + t.Name()}
	err = cli.SetProofRemote(w.peer, "read", "obj", nil,
		[]kernel.RemoteCred{{Cert: c}, {Inline: fresh}})
	if err == nil {
		t.Fatal("saturated inline credential encoded successfully")
	}
	if _, err := cli.Connect(w.peer, "anything"); !errors.Is(err, kernel.ErrTransportClosed) {
		t.Fatalf("peer not poisoned after codec failure: %v", err)
	}
}

// TestRemoteCallTCP runs the round trip over the TCP backend.
func TestRemoteCallTCP(t *testing.T) {
	front, store := bootNode(t), bootNode(t)
	nStore := kernel.NewNode(store)
	var tr kernel.TCPTransport
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP loopback available: %v", err)
	}
	nStore.Serve(l)
	defer nStore.Close()

	srv, err := store.NewSession([]byte("srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(from kernel.Caller, m *kernel.Msg) ([]byte, error) {
		return []byte("tcp-ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := nStore.Export("svc", port); err != nil {
		t.Fatal(err)
	}

	nFront := kernel.NewNode(front)
	defer nFront.Close()
	peer, err := nFront.Dial(tr, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli, err := front.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cli.Connect(peer, "svc")
	if err != nil {
		t.Fatal(err)
	}
	out, err := cli.CallRemote(c, &kernel.Msg{Op: "ping", Obj: "x"})
	if err != nil || string(out) != "tcp-ok" {
		t.Fatalf("TCP remote call: %q, %v", out, err)
	}
}

// TestNodeCloseExitsProxies: tearing the transport down exits every proxy
// process the connection created on the serving kernel.
func TestNodeCloseExitsProxies(t *testing.T) {
	w := newTwoNodes(t)
	srv, err := w.store.NewSession([]byte("srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := w.nStore.Export("svc", port); err != nil {
		t.Fatal(err)
	}
	cli, err := w.front.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Connect(w.peer, "svc"); err != nil {
		t.Fatal(err)
	}
	before := len(w.store.Processes())
	w.peer.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(w.store.Processes()) >= before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(w.store.Processes()); got >= before {
		t.Fatalf("proxy processes survived connection teardown: %d, was %d", got, before)
	}
}
