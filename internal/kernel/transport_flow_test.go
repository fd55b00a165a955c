package kernel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// bootK boots a kernel for the internal transport tests, failing the test
// on platform error.
func bootK(t *testing.T) *Kernel {
	t.Helper()
	k := bootKernelRaw()
	if k == nil {
		t.Fatal("kernel boot failed")
	}
	return k
}

// rawConn is an attested connection under test control: no goroutine
// drives it, frames go out through the dialing Peer's egress combiner and
// come in through the splitter its handshake read with.
type rawConn struct {
	Conn
	p  *Peer
	in *splitter
}

// send writes one frame, taking ownership of it.
func (c *rawConn) send(frame []byte) error { return c.p.sendOwned(frame) }

// recv reads the next frame.
func (c *rawConn) recv() ([]byte, error) { return c.in.next(true) }

// dialRaw dials addr over tr and runs nFront's side of the handshake on
// the connection, which it closes when the test ends.
func dialRaw(t *testing.T, nFront *Node, tr Transport, addr string) *rawConn {
	t.Helper()
	c, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	p, in, err := nFront.handshakeClient(c)
	if err != nil {
		t.Fatal(err)
	}
	return &rawConn{Conn: c, p: p, in: in}
}

// rawPair boots two nodes with the given configs, serves store at addr
// over tr, and returns an attested raw connection to it plus both nodes.
func rawPair(t *testing.T, tr Transport, addr string, cfgFront, cfgStore TransportConfig) (*rawConn, *Node, *Node) {
	t.Helper()
	front, store := bootK(t), bootK(t)
	nStore := NewNodeWithConfig(store, cfgStore)
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNodeWithConfig(front, cfgFront)
	t.Cleanup(func() {
		nFront.Close()
		nStore.Close()
	})
	return dialRaw(t, nFront, tr, l.Addr()), nFront, nStore
}

// rawSubmit frames a minimal fSubmit carrying only a request id: the server
// answers it with an fErr frame echoing the id (truncated body), which makes
// it a one-frame request/response probe that needs no exports or sessions.
func rawSubmit(id uint64) []byte {
	return binary.AppendUvarint([]byte{fSubmit}, id)
}

// recvResp reads the next frame, which must be an fErr response, and
// returns the echoed request id.
func recvResp(t *testing.T, c *rawConn) (uint64, error) {
	t.Helper()
	resp, err := c.recv()
	if err != nil {
		return 0, err
	}
	if len(resp) < 2 || resp[0] != fErr {
		t.Fatalf("unexpected response frame type %d", resp[0])
	}
	id, n := binary.Uvarint(resp[1:])
	if n <= 0 {
		t.Fatal("response without request id")
	}
	return id, nil
}

// TestTransportConfigDefaults pins the resolved defaults.
func TestTransportConfigDefaults(t *testing.T) {
	c := TransportConfig{}.withDefaults()
	if c.MaxConns != DefaultMaxConns || c.ReattestCap != DefaultReattestCap {
		t.Fatalf("defaults not resolved: %+v", c)
	}
	if keep := (TransportConfig{MaxConns: 9, ReattestCap: 2}).withDefaults(); keep != (TransportConfig{MaxConns: 9, ReattestCap: 2}) {
		t.Fatalf("explicit config not preserved: %+v", keep)
	}
}

// TestLRUTable pins the re-attestation table semantics: capacity bound,
// LRU eviction order, and recency refresh on get.
func TestLRUTable(t *testing.T) {
	lru := newLRUTable[int](2)
	lru.put("a", 1)
	lru.put("b", 2)
	lru.get("a") // refresh: b is now least recently used
	lru.put("c", 3)
	if _, ok := lru.get("b"); ok {
		t.Fatal("LRU evicted the recently-used entry instead of the stale one")
	}
	if v, ok := lru.get("a"); !ok || v != 1 {
		t.Fatal("refreshed entry evicted")
	}
	if v, ok := lru.get("c"); !ok || v != 3 {
		t.Fatal("newest entry missing")
	}
	if lru.len() != 2 {
		t.Fatalf("table len %d, want 2", lru.len())
	}
	lru.remove("a")
	if _, ok := lru.get("a"); ok || lru.len() != 1 {
		t.Fatal("remove did not drop the entry")
	}
}

// TestReattestTableBounded bounds the warm re-attestation tables: with the
// server's table capped at 2, a third label evicts the first, and a warm
// re-transfer of the evicted label must fall back to the cold path (full
// certificate) transparently — an eviction costs one re-crossing, never an
// error.
func TestReattestTableBounded(t *testing.T) {
	testReattestTableBounded(t, NewLoopbackTransport(), "store")
}

func testReattestTableBounded(t *testing.T, lt Transport, addr string) {
	front, store := bootK(t), bootK(t)
	nStore := NewNodeWithConfig(store, TransportConfig{ReattestCap: 2})
	l, err := lt.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNode(front)
	peer, err := nFront.Dial(lt, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		nFront.Close()
		nStore.Close()
	}()

	cli, err := front.NewSession([]byte("reattest-cli"))
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]*Label, 3)
	for i := range labels {
		lbl, err := cli.Say(fmt.Sprintf("stmt-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		labels[i] = lbl
		if _, err := cli.TransferLabelRemote(peer, lbl.Handle); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	// The client still remembers label 0 as attested; the server's
	// 2-entry table evicted it. The warm attempt is denied and must
	// silently re-cross cold.
	peer.sendMu.Lock()
	warm := peer.attested.len()
	peer.sendMu.Unlock()
	if warm != 3 {
		t.Fatalf("client attested table has %d entries, want 3", warm)
	}
	if _, err := cli.TransferLabelRemote(peer, labels[0].Handle); err != nil {
		t.Fatalf("re-transfer of evicted label: %v", err)
	}
	// And a bounded client: cap 2 on the dialing side keeps the client
	// table at 2 across 3 transfers.
	nFront2 := NewNodeWithConfig(front, TransportConfig{ReattestCap: 2})
	peer2, err := nFront2.Dial(lt, l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nFront2.Close()
	for _, lbl := range labels {
		if _, err := cli.TransferLabelRemote(peer2, lbl.Handle); err != nil {
			t.Fatal(err)
		}
	}
	peer2.sendMu.Lock()
	n := peer2.attested.len()
	peer2.sendMu.Unlock()
	if n != 2 {
		t.Fatalf("capped client attested table has %d entries, want 2", n)
	}
}

// TestShedLoad caps the server at one connection: the second dial must be
// rejected gracefully — accepted, answered with a typed EAGAIN, closed —
// counted in the shed metric, and the slot must free on disconnect.
func TestShedLoad(t *testing.T) {
	front, store := bootK(t), bootK(t)
	nStore := NewNodeWithConfig(store, TransportConfig{MaxConns: 1})
	lt := NewLoopbackTransport()
	l, err := lt.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNode(front)
	defer func() {
		nFront.Close()
		nStore.Close()
	}()

	p1, err := nFront.Dial(lt, "store")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nFront.Dial(lt, "store"); !errors.Is(err, ErrAgain) {
		t.Fatalf("over-capacity dial: got %v, want EAGAIN", err)
	}
	if n := store.Metrics().NetShedRejects; n < 1 {
		t.Fatalf("NetShedRejects %d, want >= 1", n)
	}
	// Freeing the slot re-admits: teardown is asynchronous, so poll.
	p1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p2, err := nFront.Dial(lt, "store")
		if err == nil {
			p2.Close()
			break
		}
		if !errors.Is(err, ErrAgain) {
			t.Fatalf("redial after close: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("connection slot never freed after peer close")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShedRejectionBeforeHello pins the shed race TestShedLoad hits only
// rarely: the shedding node has queued its EAGAIN frame and closed before
// the dialer's hello goes out, so the hello's write fails — and the dialer
// must still read the typed rejection through its splitter and report it,
// not the closed pipe.
func TestShedRejectionBeforeHello(t *testing.T) {
	n := NewNode(bootK(t))
	defer n.Close()
	cli, srv := newLoopPipe()
	eg := newEgress(srv, n.k.metrics, 0)
	eg.commit(appendErrFrame(eg.begin(), 0, "accept",
		abiErr(EAGAIN, "accept", "node connection limit reached")))
	if err := eg.flush(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, _, err := n.handshakeClient(cli); !errors.Is(err, ErrAgain) {
		t.Fatalf("handshake against a shed connection: got %v, want EAGAIN", err)
	}
}

// joinConn holds its second Write, a dialer's hello-ack, back and writes
// it together with its third, the first request, in one Write.
type joinConn struct {
	Conn
	writes int
	held   []byte
}

func (c *joinConn) Write(p []byte) (int, error) {
	c.writes++
	switch c.writes {
	case 2:
		c.held = append([]byte(nil), p...)
		return len(p), nil
	case 3:
		if _, err := c.Conn.Write(append(c.held, p...)); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestHandshakeHandOff: the dialer's hello-ack and its first request
// arrive in one write, so the accepting end's handshake reads the request
// along with the ack. The server must answer it: drive takes over the
// splitter the handshake read through, and a second reader built after
// the handshake would drop the held request and never answer. Over
// loopback the splitter reads the ack's body into a pooled buffer with
// room past it, so there too the read that completes the ack also takes
// the request.
func TestHandshakeHandOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
		addr string
	}{
		{"loopback", NewLoopbackTransport(), "store"},
		{"tcp", TCPTransport{}, "127.0.0.1:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nStore := NewNode(bootK(t))
			l, err := tc.tr.Listen(tc.addr)
			if err != nil {
				t.Skipf("listen: %v", err)
			}
			nStore.Serve(l)
			nFront := NewNode(bootK(t))
			defer func() {
				nFront.Close()
				nStore.Close()
			}()
			c, err := tc.tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			p, in, err := nFront.handshakeClient(&joinConn{Conn: c})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.sendOwned(rawSubmit(1)); err != nil {
				t.Fatal(err)
			}
			var id uint64
			withinBound(t, 10*time.Second, func() { id, err = recvResp(t, &rawConn{Conn: c, p: p, in: in}) })
			if err != nil || id != 1 {
				t.Fatalf("response echoes id %d (err %v), want 1", id, err)
			}
		})
	}
}

// TestLoopbackDrainedHoldsNoBuffer: after a request and its response, a
// loopback pipe whose two directions are drained holds no byte buffer,
// and neither does the dialer's splitter.
func TestLoopbackDrainedHoldsNoBuffer(t *testing.T) {
	c, _, _ := rawPair(t, NewLoopbackTransport(), "store", TransportConfig{}, TransportConfig{})
	if err := c.send(rawSubmit(1)); err != nil {
		t.Fatal(err)
	}
	if id, err := recvResp(t, c); err != nil || id != 1 {
		t.Fatalf("response echoes id %d (err %v), want 1", id, err)
	}
	st := c.Conn.(*loopConn).st
	st.mu.Lock()
	q := st.q
	st.mu.Unlock()
	for i := range q {
		if q[i].b != nil {
			t.Fatalf("drained direction %d holds a %d-byte buffer", i, cap(q[i].b))
		}
	}
	if c.in.b != nil {
		t.Fatalf("an idle splitter holds a %d-byte buffer", cap(c.in.b))
	}
}

// TestLoopbackRead holds the pipe's Read to the io.Reader contract: it
// fills at most len(p) bytes of a buffer with spare capacity and reports
// that many, and two Reads waiting on one end each return what they got
// or the close.
func TestLoopbackRead(t *testing.T) {
	a, b := newLoopPipe()
	msg := []byte("0123456789")
	go a.Write(msg)
	var got []byte
	for len(got) < len(msg) {
		p := make([]byte, 3, 64)
		n, err := b.Read(p)
		if err != nil || n > len(p) {
			t.Fatalf("Read into len 3, cap 64 returned %d, %v", n, err)
		}
		got = append(got, p[:n]...)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}

	type result struct {
		n   int
		err error
	}
	done := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			n, err := b.Read(make([]byte, 8))
			done <- result{n, err}
		}()
	}
	// The pause makes it likely that both Reads wait before the write;
	// what is checked holds in any order.
	time.Sleep(10 * time.Millisecond)
	a.Write([]byte("x"))
	a.Close()
	var n int
	for i := 0; i < 2; i++ {
		r := <-done
		if r.err == nil {
			n += r.n
		}
	}
	if n != 1 {
		t.Fatalf("two waiting Reads returned %d bytes of a 1-byte write", n)
	}
}

// TestTransportGoroutineFootprint pins the runtime's goroutine contract
// over loopback: one goroutine per established connection end (see
// testGoroutineFootprint). TestTransportGoroutineFootprintTCP is its TCP
// sibling; the Makefile leakcheck target runs both.
func TestTransportGoroutineFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("1024 handshakes")
	}
	testGoroutineFootprint(t, NewLoopbackTransport(), "store")
}

// footprintConns is the connection count of the footprint tests, and
// footprintSlack the goroutines they allow beyond two per connection: the
// serving node's accept loop plus room for a runtime helper.
const (
	footprintConns = 1024
	footprintSlack = 4
)

// testGoroutineFootprint holds footprintConns idle connections over tr with
// both ends in this process, so each costs exactly two goroutines: the
// accepted end's and the dialed Peer's. It requires that count within
// footprintSlack, a round trip on the first and the last connection, and
// a return to the baseline count once both nodes close.
func testGoroutineFootprint(t *testing.T, tr Transport, addr string) {
	front, store := bootK(t), bootK(t)
	baseline := settledGoroutines(0)

	nStore := NewNode(store)
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNode(front)
	defer func() {
		nFront.Close()
		nStore.Close()
	}()

	peers := make([]*Peer, 0, footprintConns)
	for i := 0; i < footprintConns; i++ {
		p, err := nFront.Dial(tr, l.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		peers = append(peers, p)
	}
	if n := store.Metrics().NetLiveConns; n != footprintConns {
		t.Fatalf("store NetLiveConns %d, want %d", n, footprintConns)
	}

	idle := settledGoroutines(baseline+2*footprintConns+footprintSlack) - baseline
	if idle < 2*footprintConns || idle > 2*footprintConns+footprintSlack {
		t.Fatalf("%d goroutines over baseline for %d idle connections, want %d to %d (two per connection)",
			idle, footprintConns, 2*footprintConns, 2*footprintConns+footprintSlack)
	}

	// Liveness: connections picked from both ends of the dial order still
	// serve round-trips (an unknown service is a full exchange).
	for _, p := range []*Peer{peers[0], peers[footprintConns-1]} {
		if _, err := p.connect(1, "no-such-service"); err == nil {
			t.Fatal("connect to unknown service succeeded")
		} else if errors.Is(err, ErrTransportClosed) {
			t.Fatalf("idle connection dead: %v", err)
		}
	}

	nFront.Close()
	nStore.Close()
	if after := settledGoroutines(baseline); after > baseline {
		t.Fatalf("%d goroutines after close, baseline %d: connection teardown leaks", after, baseline)
	}
}

// settledGoroutines samples runtime.NumGoroutine until it stops falling or
// reaches target, giving asynchronous teardown time to complete.
func settledGoroutines(target int) int {
	last := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if target > 0 && last <= target {
			return last
		}
		time.Sleep(20 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= last && target <= 0 {
			return n
		}
		last = n
	}
	return last
}

// TestNodeConstructionNeverBlocks builds and closes 200 Nodes under a
// hard bound: constructing a Node must not wait on any wakeup, so a
// blocking start-up path fails here in seconds with every stack printed.
func TestNodeConstructionNeverBlocks(t *testing.T) {
	k := bootK(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			NewNode(k).Close()
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("200 NewNode/Close cycles did not finish in 30s:\n%s", buf[:runtime.Stack(buf, true)])
	}
}
