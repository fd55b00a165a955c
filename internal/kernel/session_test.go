package kernel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/nal"
)

// echoSrv wires a session world: a server session listening on an echo
// port, and a client session with an open channel to it.
func echoSrv(t *testing.T) (k *Kernel, srv, cli *Session, ch Cap) {
	t.Helper()
	k = bootKernel(t)
	var err error
	if srv, err = k.NewSession([]byte("srv")); err != nil {
		t.Fatal(err)
	}
	if cli, err = k.NewSession([]byte("cli")); err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(from Caller, m *Msg) ([]byte, error) {
		if len(m.Args) > 0 {
			return append([]byte("echo:"), m.Args[0]...), nil
		}
		return []byte("echo"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := srv.PortOf(pc)
	if err != nil {
		t.Fatal(err)
	}
	if ch, err = cli.Open(id); err != nil {
		t.Fatal(err)
	}
	return k, srv, cli, ch
}

func TestSessionCallRoundTrip(t *testing.T) {
	_, _, cli, ch := echoSrv(t)
	out, err := cli.Call(ch, &Msg{Op: "echo", Obj: "o", Args: [][]byte{[]byte("hi")}})
	if err != nil || !bytes.Equal(out, []byte("echo:hi")) {
		t.Fatalf("Call = %q, %v", out, err)
	}
	// CallContext honors cancellation before dispatch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cli.CallContext(ctx, ch, &Msg{Op: "echo", Obj: "o"}); ErrnoOf(err) != ECANCELED {
		t.Fatalf("canceled call: want ECANCELED, got %v", err)
	}
}

func TestHandleLifecycle(t *testing.T) {
	_, _, cli, ch := echoSrv(t)
	// Dup resolves to the same port.
	dup, err := cli.Dup(ch)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := cli.PortOf(ch)
	p2, _ := cli.PortOf(dup)
	if p1 != p2 {
		t.Fatalf("dup resolves to port %d, original %d", p2, p1)
	}
	// Closing one of two handles keeps the channel capability; closing the
	// last drops it.
	if err := cli.Close(ch); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(ch, &Msg{Op: "x", Obj: "y"}); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("closed handle: want ErrBadHandle, got %v", err)
	}
	if _, err := cli.Call(dup, &Msg{Op: "x", Obj: "y"}); err != nil {
		t.Fatalf("dup survives sibling close: %v", err)
	}
	if err := cli.Close(dup); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(dup); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("double close: want ErrBadHandle, got %v", err)
	}
	if cli.Handles() != 0 {
		t.Fatalf("handles remain after closes: %d", cli.Handles())
	}
	// The next handle reuses the last closed slot under a new generation,
	// and the closed handle naming that slot still misses.
	obj, err := cli.OpenObject("o")
	if err != nil {
		t.Fatal(err)
	}
	if capSlot(obj) != capSlot(dup) {
		t.Fatalf("new handle took slot %d, want the last closed slot %d", capSlot(obj), capSlot(dup))
	}
	if _, err := cli.ObjectOf(dup); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("stale handle on a reused slot: want ErrBadHandle, got %v", err)
	}
	if name, err := cli.ObjectOf(obj); err != nil || name != "o" {
		t.Fatalf("ObjectOf(new handle) = %q, %v", name, err)
	}
}

func TestCloseOwnerHandleTearsDownPort(t *testing.T) {
	k, srv, cli, ch := echoSrv(t)
	pc, err := srv.ListeningPort()
	if err != nil {
		t.Fatal(err)
	}
	// Find the owner handle: it is srv's only handle.
	var ownerCap Cap
	srv.ht.each(func(slot uint32, sl *hslot) {
		if sl.kind == capPort {
			ownerCap = capOf(slot, sl.gen)
		}
	})
	if err := srv.Close(ownerCap); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.FindPort(pc); ok {
		t.Fatal("port survived owner-handle close")
	}
	if _, err := cli.Call(ch, &Msg{Op: "x", Obj: "y"}); ErrnoOf(err) != ENOENT {
		t.Fatalf("call to torn-down port: want ENOENT, got %v", err)
	}
}

func TestGrantHandsChannelToPeer(t *testing.T) {
	k, _, cli, ch := echoSrv(t)
	k.EnforceChannels(true)
	peer, _ := k.NewSession([]byte("peer"))
	pc, err := cli.Grant(peer, ch)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Call(pc, &Msg{Op: "x", Obj: "y"}); err != nil {
		t.Fatalf("granted call: %v", err)
	}
	// The grant shows in the coherent channel snapshot.
	found := false
	for pid := range k.Channels() {
		if pid == peer.PID() {
			found = true
		}
	}
	if !found {
		t.Fatal("grant missing from Channels()")
	}
}

// TestOpenCloseGrantRace races Open/Dup against Close of sibling handles
// to the same port under channel enforcement: a Cap successfully returned
// by Open or Dup must be callable until it is itself closed — a concurrent
// sibling Close must never revoke the grant out from under it. (Open
// publishes the handle slot before the grant lands, and Dup re-asserts the
// grant, precisely so the last-handle revocation scan cannot misfire.)
func TestOpenCloseGrantRace(t *testing.T) {
	k, _, cli, ch := echoSrv(t)
	k.SetAuthorization(false)
	k.EnforceChannels(true)
	portID, err := cli.PortOf(ch)
	if err != nil {
		t.Fatal(err)
	}
	// Close the setup handle so the workers' handles are the only ones:
	// whenever every worker is between Close and Open, the pid-level grant
	// is genuinely revoked, and each fresh Open re-establishes it inside
	// the racy window the slot-before-grant ordering protects.
	if err := cli.Close(ch); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				c, err := cli.Open(portID)
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if _, err := cli.Call(c, &Msg{Op: "x", Obj: "y"}); err != nil {
					t.Errorf("call through live handle: %v", err)
					return
				}
				d, err := cli.Dup(c)
				if err != nil {
					t.Errorf("dup: %v", err)
					return
				}
				if err := cli.Close(c); err != nil {
					t.Errorf("close: %v", err)
					return
				}
				// The dup outlives its source's close.
				if _, err := cli.Call(d, &Msg{Op: "x", Obj: "y"}); err != nil {
					t.Errorf("call through dup after sibling close: %v", err)
					return
				}
				if err := cli.Close(d); err != nil {
					t.Errorf("close dup: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Quiescence: no worker handles remain, so the grant must be gone and
	// a fresh Open must restore it.
	if cli.Handles() != 0 {
		t.Fatalf("handles remain: %d", cli.Handles())
	}
	c, err := cli.Open(portID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(c, &Msg{Op: "x", Obj: "y"}); err != nil {
		t.Fatalf("fresh open after churn: %v", err)
	}
}

func TestExitRevokesHandles(t *testing.T) {
	_, _, cli, ch := echoSrv(t)
	cli.Exit()
	if _, err := cli.Call(ch, &Msg{Op: "x", Obj: "y"}); !errors.Is(err, ErrBadHandle) {
		t.Fatalf("post-exit call: want ErrBadHandle, got %v", err)
	}
	if cli.Handles() != 0 {
		t.Fatalf("handles survive exit: %d", cli.Handles())
	}
	if _, err := cli.Open(1); ErrnoOf(err) == EOK {
		t.Fatal("open on exited session must fail")
	}
}

func TestObjectHandleAuthorizes(t *testing.T) {
	k := bootKernel(t)
	k.SetGuard(allowAllGuard{})
	owner, _ := k.NewSession([]byte("owner"))
	other, _ := k.NewSession([]byte("other"))
	obj, err := owner.OpenObject("vault")
	if err != nil {
		t.Fatal(err)
	}
	if name, _ := owner.ObjectOf(obj); name != "vault" {
		t.Fatalf("ObjectOf = %q", name)
	}
	// Deny everyone via an unprovable goal with no registered proof.
	if err := owner.SetGoal("read", "vault", nal.MustParse("Admin says never"), denyGuard{}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Call(obj, &Msg{Op: "read"}); !errors.Is(err, ErrDenied) {
		t.Fatalf("object op: want ErrDenied, got %v", err)
	}
	// The denial is typed.
	_, err = owner.Call(obj, &Msg{Op: "read"})
	var abi *Error
	if !errors.As(err, &abi) || abi.Errno != EACCES {
		t.Fatalf("want *Error with EACCES, got %#v", err)
	}
	_ = other
}

type denyGuard struct{}

func (denyGuard) Check(*GuardRequest) GuardDecision {
	return GuardDecision{Allow: false, Cacheable: true, Reason: "deny"}
}

func TestSubmitBatchSemantics(t *testing.T) {
	k, _, cli, ch := echoSrv(t)
	k.SetGuard(allowAllGuard{})
	subs := []Sub{
		{Cap: ch, Op: "a", Obj: "o", Args: [][]byte{[]byte("1")}, Tag: 11},
		{Cap: Cap(1<<40 | 7), Op: "b", Obj: "o", Tag: 22}, // forged handle
		{Cap: ch, Op: "c", Obj: "o", Args: [][]byte{[]byte("3")}, Tag: 33},
	}
	comps, err := cli.Submit(context.Background(), subs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 3 {
		t.Fatalf("completions = %d", len(comps))
	}
	if comps[0].Tag != 11 || !bytes.Equal(comps[0].Out, []byte("echo:1")) || comps[0].Err != nil {
		t.Errorf("comp0 = %+v", comps[0])
	}
	if comps[1].Tag != 22 || ErrnoOf(comps[1].Err) != EBADF {
		t.Errorf("comp1: want EBADF, got %+v", comps[1])
	}
	if comps[2].Tag != 33 || !bytes.Equal(comps[2].Out, []byte("echo:3")) || comps[2].Err != nil {
		t.Errorf("comp2 = %+v (a bad handle must not poison the batch)", comps[2])
	}

	// Completion-queue reuse: a large-enough slice is reused in place.
	buf := make([]Completion, 0, 8)
	comps2, _ := cli.Submit(nil, subs, buf)
	if &comps2[0] != &buf[:1][0] {
		t.Error("completion slice with capacity was not reused")
	}

	// Canceled context: remaining ops complete with ECANCELED.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	comps3, err := cli.Submit(ctx, subs, nil)
	if ErrnoOf(err) != ECANCELED {
		t.Fatalf("submit on canceled ctx: want ECANCELED, got %v", err)
	}
	for i, c := range comps3 {
		if ErrnoOf(c.Err) != ECANCELED {
			t.Errorf("comp %d after cancel: %+v", i, c)
		}
	}
}

func TestSubmitMatchesCallUnderMonitor(t *testing.T) {
	// A monitor observing wire copies must see identical decodes through
	// the single-call path and the arena-marshaled batch path.
	k, srv, cli, ch := echoSrv(t)
	k.SetGuard(allowAllGuard{})
	var mu sync.Mutex
	var seen []*Msg
	id, err := srv.ListeningPort()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Interpose(id, FuncMonitor{
		Call: func(from Caller, m *Msg, wire []byte) Verdict {
			dm, err := DecodeWire(append([]byte(nil), wire...))
			if err != nil {
				t.Errorf("monitor decode: %v", err)
				return VerdictBlock
			}
			mu.Lock()
			seen = append(seen, dm)
			mu.Unlock()
			return VerdictAllow
		},
	}); err != nil {
		t.Fatal(err)
	}
	cli.Call(ch, &Msg{Op: "single", Obj: "o", Args: [][]byte{[]byte("x")}})
	subs := []Sub{
		{Cap: ch, Op: "b0", Obj: "o", Args: [][]byte{[]byte("y0")}},
		{Cap: ch, Op: "b1", Obj: "o", Args: [][]byte{[]byte("y1")}},
	}
	if _, err := cli.Submit(nil, subs, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("monitor saw %d calls, want 3", len(seen))
	}
	for i, want := range []string{"single", "b0", "b1"} {
		if seen[i].Op != want {
			t.Errorf("monitor call %d op = %q, want %q", i, seen[i].Op, want)
		}
	}
}

func TestSubQueueReuse(t *testing.T) {
	k, _, cli, ch := echoSrv(t)
	k.SetGuard(allowAllGuard{})
	q := cli.NewQueue(8)
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			q.Push(Sub{Cap: ch, Op: "op", Obj: "o", Tag: uint64(i)})
		}
		comps := q.Flush(context.Background())
		if len(comps) != 8 {
			t.Fatalf("round %d: %d completions", round, len(comps))
		}
		for i, c := range comps {
			if c.Err != nil || c.Tag != uint64(i) {
				t.Fatalf("round %d comp %d: %+v", round, i, c)
			}
		}
		if q.Depth() != 0 {
			t.Fatalf("queue not drained: %d", q.Depth())
		}
	}
}

func TestErrnoTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want Errno
	}{
		{abiErr(EACCES, "read", "nope"), EACCES},
		{ErrDenied, EACCES},
		{fmt.Errorf("wrapped: %w", abiErr(EBADF, "resolve", "")), EBADF},
		{ErrNoSuchPort, ENOENT},
		{ErrNoSuchProcess, ESRCH},
		{ErrBootIntegrity, EINTEGRITY},
		{errors.New("handler-level"), EOK},
		{nil, EOK},
	}
	for i, c := range cases {
		if got := ErrnoOf(c.err); got != c.want {
			t.Errorf("case %d: ErrnoOf(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
	// Typed errors match their sentinel and their class.
	e := abiErr(EACCES, "call", "blocked")
	if !errors.Is(e, ErrDenied) {
		t.Error("EACCES must match ErrDenied")
	}
	if !errors.Is(e, abiErr(EACCES, "other", "detail")) {
		t.Error("class equality must ignore detail")
	}
	if errors.Is(e, ErrNoSuchPort) {
		t.Error("EACCES must not match ErrNoSuchPort")
	}
}

// TestAllocErrnoOf pins ErrnoOf of a direct *Error at zero allocations:
// callers classify each denial with it, and the remote error encoder
// calls it for every error body it writes.
func TestAllocErrnoOf(t *testing.T) {
	var err error = abiErr(EACCES, "read", "denied")
	allocs := testing.AllocsPerRun(200, func() {
		if ErrnoOf(err) != EACCES {
			t.Fatal("ErrnoOf lost the class of a direct *Error")
		}
	})
	if allocs != 0 {
		t.Errorf("ErrnoOf of a direct *Error allocates %.1f objects/op, want 0", allocs)
	}
}

func TestSessionSpawnHierarchy(t *testing.T) {
	k := bootKernel(t)
	parent, _ := k.NewSession([]byte("parent"))
	child, err := parent.Spawn([]byte("child"))
	if err != nil {
		t.Fatal(err)
	}
	if child.ParentPID() != parent.PID() {
		t.Fatalf("child parent = %d, want %d", child.ParentPID(), parent.PID())
	}
	if !nal.IsAncestor(k.Prin, child.Prin()) {
		t.Error("child principal must be a kernel subprincipal")
	}
	ppid, err := child.GetPPID()
	if err != nil || ppid != parent.PID() {
		t.Fatalf("GetPPID = %d, %v", ppid, err)
	}
}
