package kernel

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// Reader parity: the transport's protocol semantics — flow control,
// hostile-credit clamping, poison-on-desync, re-attestation bounding,
// concurrent teardown — must not depend on which reader feeds a connection
// end its frames. Loopback and Linux TCP ends have readers of their own;
// every other Conn, a third-party transport's or TCP's on other platforms,
// is read through its blocking Recv and written frame by frame. This suite
// re-runs the core semantic tests over a transport whose connections the
// runtime does not recognise, so that path keeps passing the same gauntlet
// on Linux CI.

// opaqueTransport wraps every Conn of an underlying transport in a type the
// runtime does not recognise.
type opaqueTransport struct{ Transport }

type opaqueListener struct{ Listener }

// opaqueConn exposes only the Conn interface: no raw reader, no raw
// writer, no deadlines.
type opaqueConn struct{ Conn }

func (t opaqueTransport) Listen(addr string) (Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return opaqueListener{l}, nil
}

func (t opaqueTransport) Dial(addr string) (Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return opaqueConn{c}, nil
}

func (l opaqueListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return opaqueConn{c}, nil
}

func TestRecvReaderParity(t *testing.T) {
	if _, ok := readerFor(opaqueConn{}, nil, 0).(recvReader); !ok {
		t.Fatal("an unrecognised Conn is not read through Recv")
	}
	for _, tc := range []struct {
		name string
		run  func(*testing.T, Transport)
	}{
		{"SlowConsumerBackpressure", testSlowConsumerBackpressure},
		{"HostileCreditClampServer", testHostileCreditClampServer},
		{"HostileCreditClampClient", testHostileCreditClampClient},
		{"ReattestTableBounded", testReattestTableBounded},
		{"PoisonOnDesync", testPoisonOnDesync},
		{"Stress", testTransportStressSmall},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, opaqueTransport{NewLoopbackTransport()}) })
	}
}

// TestPoisonOnDesync pins the desync discipline over loopback; the parity
// run above repeats it through the Recv reader.
func TestPoisonOnDesync(t *testing.T) { testPoisonOnDesync(t, NewLoopbackTransport()) }

// testPoisonOnDesync sends a frame of unknown type: the server must answer
// with a typed error (flushed before teardown — the egress combiner's
// poison-before-die ordering) and then close the connection, because its
// per-connection codec tables may have desynced from the client's.
func testPoisonOnDesync(t *testing.T, lt Transport) {
	c, _, _, _ := rawPair(t, lt, TransportConfig{}, TransportConfig{})
	if err := c.Send(binary.AppendUvarint([]byte{0xEE}, 7)); err != nil {
		t.Fatal(err)
	}
	id, err := recvResp(t, c)
	if err != nil {
		t.Fatalf("poisoned connection died before flushing its error response: %v", err)
	}
	if id != 7 {
		t.Fatalf("error response echoes id %d, want 7", id)
	}
	// After the flushed error the connection must be dead: the next
	// receive fails rather than delivering anything.
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection survived a desyncing frame")
	}
}

// testTransportStressSmall is a scaled-down sibling of the external
// TestLoopbackTransportStress for the parity run: concurrent remote calls,
// batched submissions, and dial/close churn over one transport, ending on
// the no-pending-calls and proxy-teardown invariants.
func testTransportStressSmall(t *testing.T, lt Transport) {
	front, store := bootK(t), bootK(t)
	nStore := NewNode(store)
	l, err := lt.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNode(front)

	srv, err := store.NewSession([]byte("parity-srv"))
	if err != nil {
		t.Fatal(err)
	}
	pc, err := srv.Listen(func(Caller, *Msg) ([]byte, error) { return []byte("ok"), nil })
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

	const workers = 4
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s, err := front.NewSession([]byte(fmt.Sprintf("parity-%d", id)))
			if err != nil {
				t.Errorf("session: %v", err)
				return
			}
			defer s.Exit()
			c, err := s.Connect(shared, "echo")
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			for i := 0; i < rounds; i++ {
				if _, err := s.CallRemote(c, &Msg{Op: "read", Obj: "o"}); err != nil {
					t.Errorf("remote call: %v", err)
					return
				}
				if i%8 == 0 {
					subs := []Sub{{Cap: c, Op: "read", Obj: "o", Tag: 1}, {Cap: c, Op: "read", Obj: "o", Tag: 2}}
					comps, err := s.SubmitRemote(nil, c, subs, nil)
					if err != nil {
						t.Errorf("remote submit: %v", err)
						return
					}
					for j := range comps {
						if comps[j].Err != nil {
							t.Errorf("batched op: %v", comps[j].Err)
						}
					}
				}
				if i%16 == 0 {
					p, err := nFront.Dial(lt, "store")
					if err != nil {
						t.Errorf("churn dial: %v", err)
						return
					}
					p.Close()
				}
			}
		}(w)
	}
	wg.Wait()

	if n := shared.Pending(); n != 0 {
		t.Errorf("shared peer holds %d pending calls with no caller running", n)
	}
	nFront.Close()
	nStore.Close()
	if got := len(store.Processes()); got != 1 {
		t.Fatalf("store kernel has %d live processes after close, want 1", got)
	}
	if got := len(front.Processes()); got != 0 {
		t.Fatalf("front kernel has %d live processes after close, want 0", got)
	}
}
