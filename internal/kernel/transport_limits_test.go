package kernel_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/nal"
	"repro/internal/nal/proof"
)

// withinBound runs f and fails the test, printing every goroutine's stack,
// if f has not returned after d.
var withinBound = kernel.WithinBound

// transportCase is a transport with a listen address for each of two
// nodes.
type transportCase struct {
	name         string
	tr           kernel.Transport
	addrA, addrB string
}

func transports() []transportCase {
	return []transportCase{
		{"Loopback", kernel.NewLoopbackTransport(), "a", "b"},
		{"TCP", kernel.TCPTransport{}, "127.0.0.1:0", "127.0.0.1:0"},
	}
}

// newNode attaches a node to k, closed when the test ends.
func newNode(t *testing.T, k *kernel.Kernel) *kernel.Node {
	n := kernel.NewNode(k)
	t.Cleanup(n.Close)
	return n
}

// serveFunc makes n listen at addr over tr and export a port answering
// with h as service, and returns the address it listens at.
func serveFunc(t *testing.T, n *kernel.Node, tr kernel.Transport, addr, service string, h func(kernel.Caller, *kernel.Msg) ([]byte, error)) string {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	n.Serve(l)
	k := n.Kernel()
	srv, err := k.NewSession([]byte(service + "-srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(h)
	if err != nil {
		t.Fatal(err)
	}
	port, _ := srv.PortOf(pc)
	if err := n.Export(service, port); err != nil {
		t.Fatal(err)
	}
	return l.Addr()
}

// TestNestedRemoteCall makes synchronous remote calls from inside a
// handler. Kernels A and B dial each other, and B's relay handler answers
// each call by calling A's echo service through B's own Peer to A. Eight
// callers on A, spread over four Peers to B, make 50 calls each: more
// callers than a small fixed pool of handler workers could hold. Each
// handler waits only on B's Peer to A, whose own goroutine delivers the
// answer, so every call must return A's answer within the bound.
func TestNestedRemoteCall(t *testing.T) {
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			kA, kB := bootNode(t), bootNode(t)
			nA, nB := newNode(t, kA), newNode(t, kB)
			addrA := serveFunc(t, nA, tc.tr, tc.addrA, "echo", func(_ kernel.Caller, m *kernel.Msg) ([]byte, error) {
				return []byte("echo:" + m.Obj), nil
			})
			peerBA, err := nB.Dial(tc.tr, addrA)
			if err != nil {
				t.Fatal(err)
			}
			relay, err := kB.NewSession([]byte("relay"))
			if err != nil {
				t.Fatal(err)
			}
			toA, err := relay.Connect(peerBA, "echo")
			if err != nil {
				t.Fatal(err)
			}
			addrB := serveFunc(t, nB, tc.tr, tc.addrB, "relay", func(_ kernel.Caller, m *kernel.Msg) ([]byte, error) {
				return relay.CallRemote(toA, &kernel.Msg{Op: "read", Obj: m.Obj})
			})

			const peers, callers, calls = 4, 8, 50
			toB := make([]*kernel.Peer, peers)
			for i := range toB {
				if toB[i], err = nA.Dial(tc.tr, addrB); err != nil {
					t.Fatal(err)
				}
			}
			// Each caller keeps its first error in its own slot, reported
			// after the bound: a caller still running when the bound
			// expires must not touch t once the test has ended.
			errs := make([]error, callers)
			withinBound(t, 30*time.Second, func() {
				var wg sync.WaitGroup
				for c := range errs {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						s, err := kA.NewSession([]byte(fmt.Sprintf("caller-%d", c)))
						if err != nil {
							errs[c] = err
							return
						}
						defer s.Exit()
						rc, err := s.Connect(toB[c%peers], "relay")
						if err != nil {
							errs[c] = err
							return
						}
						for i := 0; i < calls; i++ {
							obj := fmt.Sprintf("%d/%d", c, i)
							out, err := s.CallRemote(rc, &kernel.Msg{Op: "read", Obj: obj})
							if err != nil || string(out) != "echo:"+obj {
								errs[c] = fmt.Errorf("nested call %s: %q, %v", obj, out, err)
								return
							}
						}
					}(c)
				}
				wg.Wait()
			})
			for c, err := range errs {
				if err != nil {
					t.Errorf("caller %d: %v", c, err)
				}
			}
		})
	}
}

// TestOversizedFrameFailsOnlyItsRequest sends a request, and provokes a
// response, larger than the 4 MiB frame limit. Each fails its own call
// with EINVAL and leaves the shared Peer up: another session's next call
// on it succeeds.
func TestOversizedFrameFailsOnlyItsRequest(t *testing.T) {
	huge := make([]byte, 5<<20)
	for _, tc := range transports() {
		t.Run(tc.name, func(t *testing.T) {
			kS, kC := bootNode(t), bootNode(t)
			addr := serveFunc(t, newNode(t, kS), tc.tr, tc.addrA, "echo", func(_ kernel.Caller, m *kernel.Msg) ([]byte, error) {
				if m.Obj == "huge" {
					return huge, nil
				}
				return []byte("ok"), nil
			})
			peer, err := newNode(t, kC).Dial(tc.tr, addr)
			if err != nil {
				t.Fatal(err)
			}
			big, err := kC.NewSession([]byte("big"))
			if err != nil {
				t.Fatal(err)
			}
			other, err := kC.NewSession([]byte("other"))
			if err != nil {
				t.Fatal(err)
			}
			rcBig, err := big.Connect(peer, "echo")
			if err != nil {
				t.Fatal(err)
			}
			rcOther, err := other.Connect(peer, "echo")
			if err != nil {
				t.Fatal(err)
			}
			next := func(what string) {
				t.Helper()
				if out, err := other.CallRemote(rcOther, &kernel.Msg{Op: "read", Obj: "o"}); err != nil || string(out) != "ok" {
					t.Fatalf("call after %s: %q, %v", what, out, err)
				}
			}

			_, err = big.CallRemote(rcBig, &kernel.Msg{Op: "read", Obj: "o", Args: [][]byte{huge}})
			if !errors.Is(err, kernel.ErrBadArgument) {
				t.Fatalf("oversized request: got %v, want EINVAL", err)
			}
			next("an oversized request")

			subs := []kernel.Sub{{Cap: rcBig, Op: "read", Obj: "o", Args: [][]byte{huge}}}
			if _, err := big.SubmitRemote(nil, rcBig, subs, nil); !errors.Is(err, kernel.ErrBadArgument) {
				t.Fatalf("oversized batch: got %v, want EINVAL", err)
			}
			next("an oversized batch")

			if _, err := big.CallRemote(rcBig, &kernel.Msg{Op: "read", Obj: "huge"}); !errors.Is(err, kernel.ErrBadArgument) {
				t.Fatalf("oversized response: got %v, want EINVAL", err)
			}
			next("an oversized response")
		})
	}
}

// TestOversizedSetProof: a setproof frame over the limit fails with EINVAL
// and leaves the peer up while its credentials advanced no codec table.
// Once an inline credential has advanced them, the oversized frame
// poisons the peer, because the two sides' numbering no longer agrees.
func TestOversizedSetProof(t *testing.T) {
	w := newTwoNodes(t)
	cli, err := w.front.NewSession([]byte("cli"))
	if err != nil {
		t.Fatal(err)
	}
	huge := proof.Assume(0, nal.Pred{Name: "big", Args: []nal.Term{nal.Str(strings.Repeat("x", 5<<20))}})
	err = cli.SetProofRemote(w.peer, "read", "obj", huge, []kernel.RemoteCred{{Ref: 1}})
	if !errors.Is(err, kernel.ErrBadArgument) {
		t.Fatalf("oversized setproof with a reference credential: got %v, want EINVAL", err)
	}
	if _, err := cli.Connect(w.peer, "anything"); errors.Is(err, kernel.ErrTransportClosed) {
		t.Fatalf("peer poisoned by a setproof that advanced no codec table: %v", err)
	}
	fresh := nal.Pred{Name: "inlineBeside_" + t.Name()}
	err = cli.SetProofRemote(w.peer, "read", "obj", huge, []kernel.RemoteCred{{Inline: fresh}})
	if !errors.Is(err, kernel.ErrTransportClosed) {
		t.Fatalf("oversized setproof with an inline credential: got %v, want ErrTransportClosed", err)
	}
	if _, err := cli.Connect(w.peer, "anything"); !errors.Is(err, kernel.ErrTransportClosed) {
		t.Fatalf("peer not poisoned after its codec tables advanced for a frame that never left: %v", err)
	}
}
