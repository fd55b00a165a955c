package kernel_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

// TestLoopbackTransportStress is the transport-layer race stress, the
// cross-node sibling of TestKernelRegistryStress: goroutines mix session
// creation, Connect, remote calls, label transfers, and session Exit —
// racing each other and racing connection teardown — over one loopback
// connection pair plus churning extra dials. Run with -race.
//
// Errors from the races themselves (ESRCH on a session that lost to its
// own Exit, transport-closed on a dialed-then-closed peer, EBADF on a
// handle drained by Exit) are expected; what must hold afterwards is the
// teardown invariant: once the nodes close, every proxy the connections
// created has exited and neither kernel leaks processes.
func TestLoopbackTransportStress(t *testing.T) {
	front, store := bootNode(t), bootNode(t)
	baseline := runtime.NumGoroutine()
	lt := kernel.NewLoopbackTransport()
	nStore := kernel.NewNode(store)
	l, err := lt.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := kernel.NewNode(front)

	srv, err := store.NewSession([]byte("stress-srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(from kernel.Caller, m *kernel.Msg) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := nStore.Export("echo", port); err != nil {
		t.Fatal(err)
	}

	shared, err := nFront.Dial(lt, "store")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const rounds = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s, err := front.NewSession([]byte(fmt.Sprintf("w%d-%d", id, i)))
				if err != nil {
					continue
				}
				// Race the session's own Exit against its remote activity.
				var inner sync.WaitGroup
				if i%3 == 0 {
					inner.Add(1)
					go func() {
						defer inner.Done()
						s.Exit()
					}()
				}
				c, err := s.Connect(shared, "echo")
				if err == nil {
					if _, err := s.CallRemote(c, &kernel.Msg{Op: "read", Obj: "o"}); err != nil &&
						!errors.Is(err, kernel.ErrBadHandle) && !errors.Is(err, kernel.ErrNoSuchPort) &&
						!errors.Is(err, kernel.ErrNoSuchProcess) && !errors.Is(err, kernel.ErrTransportClosed) {
						t.Errorf("remote call: %v", err)
					}
					// Batched submission racing the same Exit/teardown mix.
					subs := []kernel.Sub{
						{Cap: c, Op: "read", Obj: "o", Tag: 1},
						{Cap: c, Op: "read", Obj: "o", Tag: 2},
						{Cap: c, Op: "read", Obj: "o", Tag: 3},
					}
					if comps, err := s.SubmitRemote(nil, c, subs, nil); err == nil {
						for j := range comps {
							if e := comps[j].Err; e != nil &&
								!errors.Is(e, kernel.ErrNoSuchPort) && !errors.Is(e, kernel.ErrNoSuchProcess) &&
								!errors.Is(e, kernel.ErrTransportClosed) && !errors.Is(e, kernel.ErrDenied) {
								t.Errorf("batched remote op: %v", e)
							}
						}
					} else if !errors.Is(err, kernel.ErrBadHandle) && !errors.Is(err, kernel.ErrAgain) &&
						!errors.Is(err, kernel.ErrTransportClosed) {
						t.Errorf("remote submit: %v", err)
					}
				}
				if lbl, err := s.Say("stress"); err == nil {
					if _, err := s.TransferLabelRemote(shared, lbl.Handle); err != nil &&
						!errors.Is(err, kernel.ErrNoSuchLabel) && !errors.Is(err, kernel.ErrTransportClosed) {
						t.Errorf("label transfer: %v", err)
					}
				}
				inner.Wait()
				s.Exit()
			}
		}(w)
	}

	// Dial churn: extra connections come and go while the callers run —
	// thousands of dial/call/close cycles, each racing the peer's Close
	// against its own in-flight pipelined traffic. This is the event-driven
	// runtime's registration/teardown gauntlet: every cycle exercises
	// handshake, scheduler register, demux delivery, and unregister.
	const churners = 2
	const churnCycles = 500 // per churner
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := front.NewSession([]byte(fmt.Sprintf("churn-%d", g)))
			if err != nil {
				t.Errorf("churn session: %v", err)
				return
			}
			defer s.Exit()
			for i := 0; i < churnCycles; i++ {
				p, err := nFront.Dial(lt, "store")
				if err != nil {
					t.Errorf("dial churn: %v", err)
					return
				}
				var race sync.WaitGroup
				race.Add(1)
				go func() {
					defer race.Done()
					p.Close()
				}()
				if c, err := s.Connect(p, "echo"); err == nil {
					s.CallRemote(c, &kernel.Msg{Op: "read", Obj: "o"})
					if i%16 == 0 {
						s.SubmitRemote(nil, c, []kernel.Sub{{Cap: c, Op: "read", Obj: "o"}}, nil)
					}
				}
				race.Wait()
				// No pending-call entry outlives its connection: Close
				// drained the table even with calls racing it.
				if n := p.Pending(); n != 0 {
					t.Errorf("churned peer holds %d pending calls after Close", n)
				}
			}
		}(g)
	}
	wg.Wait()

	if n := shared.Pending(); n != 0 {
		t.Errorf("shared peer holds %d pending calls with no caller running", n)
	}
	nFront.Close()
	nStore.Close()
	if n := shared.Pending(); n != 0 {
		t.Errorf("shared peer holds %d pending calls after node close", n)
	}

	// Teardown invariant: the serving kernel's proxies are gone — only the
	// server session's process remains.
	if got := len(store.Processes()); got != 1 {
		t.Fatalf("store kernel has %d live processes after close, want 1", got)
	}
	// The front kernel's sessions all exited.
	if got := len(front.Processes()); got != 0 {
		t.Fatalf("front kernel has %d live processes after close, want 0", got)
	}

	// Goroutine-leak gate: after a thousand connection lifetimes and two
	// node closes, the process is back to its pre-transport footprint —
	// connections are scheduler state, not goroutine stacks.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+4 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+4 {
		t.Fatalf("%d goroutines after close, baseline %d: transport leaks goroutines", n, baseline)
	}
}

// TestTCPTransportStress is TestLoopbackTransportStress's TCP sibling: two
// goroutines each run bounded cycles of Dial, Connect, CallRemote and
// Close against one serving node. Every cycle frees descriptor numbers the
// other goroutine's next dial reuses, so a teardown that touches epoll by
// a number it no longer holds breaks a live connection here. No call may
// fail, and the live-connection gauges and goroutine count must return to
// their baselines.
func TestTCPTransportStress(t *testing.T) {
	front, store := bootNode(t), bootNode(t)
	baseline := runtime.NumGoroutine()
	nStore := kernel.NewNode(store)
	var tr kernel.TCPTransport
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := kernel.NewNode(front)
	srv, err := store.NewSession([]byte("tcp-stress-srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(kernel.Caller, *kernel.Msg) ([]byte, error) { return []byte("ok"), nil })
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := nStore.Export("echo", port); err != nil {
		t.Fatal(err)
	}

	const churners = 2
	const cycles = 500 // per churner
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := front.NewSession([]byte(fmt.Sprintf("tcp-churn-%d", g)))
			if err != nil {
				t.Errorf("churn session: %v", err)
				return
			}
			defer s.Exit()
			for i := 0; i < cycles; i++ {
				p, err := nFront.Dial(tr, l.Addr())
				if err != nil {
					t.Errorf("cycle %d: dial: %v", i, err)
					return
				}
				c, err := s.Connect(p, "echo")
				if err == nil {
					_, err = s.CallRemote(c, &kernel.Msg{Op: "read", Obj: "o"})
				}
				p.Close()
				if err != nil {
					t.Errorf("cycle %d: %v", i, err)
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("churn did not finish in 60s:\n%s", buf[:runtime.Stack(buf, true)])
	}

	// Peer teardown is asynchronous on both ends: poll the gauges.
	deadline := time.Now().Add(5 * time.Second)
	for (front.Metrics().NetLiveConns != 0 || store.Metrics().NetLiveConns != 0) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if f, s := front.Metrics().NetLiveConns, store.Metrics().NetLiveConns; f != 0 || s != 0 {
		t.Errorf("live connections after churn: front %d, store %d, want 0", f, s)
	}
	nFront.Close()
	nStore.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+4 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline+4 {
		t.Fatalf("%d goroutines after close, baseline %d: transport leaks goroutines", n, baseline)
	}
}
