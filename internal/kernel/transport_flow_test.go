package kernel

import (
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

// rawPair boots two nodes with the given configs, serves store at "store"
// over lt (a loopback transport, or one wrapping it), and returns an
// attested raw connection (handshake completed, frames under test
// control) plus the dialing node's Peer.
func rawPair(t *testing.T, lt Transport, cfgFront, cfgStore TransportConfig) (Conn, *Peer, *Node, *Node) {
	t.Helper()
	front, store := bootK(t), bootK(t)
	nStore := NewNodeWithConfig(store, cfgStore)
	l, err := lt.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNodeWithConfig(front, cfgFront)
	c, err := lt.Dial("store")
	if err != nil {
		t.Fatal(err)
	}
	p, err := nFront.handshakeClient(c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		nFront.Close()
		nStore.Close()
	})
	return c, p, nFront, nStore
}

// rawSubmit frames a minimal fSubmit carrying only a request id: the server
// answers it with an fErr frame echoing the id (truncated body), which makes
// it a one-frame request/response probe that needs no exports or sessions.
func rawSubmit(id uint64) []byte {
	return binary.AppendUvarint([]byte{fSubmit}, id)
}

// recvResp reads the next non-credit frame and returns the echoed request
// id, skipping the server's interleaved fCredit grants.
func recvResp(t *testing.T, c Conn) (uint64, error) {
	t.Helper()
	for {
		resp, err := c.Recv()
		if err != nil {
			return 0, err
		}
		if len(resp) >= 1 && resp[0] == fCredit {
			continue
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
}

// TestTransportConfigDefaults pins the resolved defaults and the
// maxRecvWindow clamp.
func TestTransportConfigDefaults(t *testing.T) {
	c := TransportConfig{}.withDefaults()
	if c.MaxInflight != DefaultMaxInflight || c.RecvWindow != DefaultRecvWindow ||
		c.MaxConns != DefaultMaxConns || c.ReattestCap != DefaultReattestCap {
		t.Fatalf("defaults not resolved: %+v", c)
	}
	over := TransportConfig{RecvWindow: maxRecvWindow + 100}.withDefaults()
	if over.RecvWindow != maxRecvWindow {
		t.Fatalf("RecvWindow %d not clamped to %d", over.RecvWindow, maxRecvWindow)
	}
	if keep := (TransportConfig{MaxInflight: 3, RecvWindow: 5, MaxConns: 9, ReattestCap: 2}).withDefaults(); keep != (TransportConfig{MaxInflight: 3, RecvWindow: 5, MaxConns: 9, ReattestCap: 2}) {
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

// TestSlowConsumerBackpressure drives a raw client that advertises a
// 4-frame receive window against a server with an 8-frame window: the
// server must park requests beyond the client's window in a bounded
// backlog, resume exactly on credit, preserve FIFO order across parking —
// and poison the connection when the client overruns the advertised
// window.
func TestSlowConsumerBackpressure(t *testing.T) {
	testSlowConsumerBackpressure(t, NewLoopbackTransport())
}

func testSlowConsumerBackpressure(t *testing.T, lt Transport) {
	const cliWin, srvWin = 4, 8
	c, _, _, _ := rawPair(t, lt,
		TransportConfig{RecvWindow: cliWin},
		TransportConfig{RecvWindow: srvWin})

	// Phase 1: fill the client window. The server answers all 4 (its
	// response credits started at our advertised window), then parks.
	next := uint64(1)
	for i := 0; i < cliWin; i++ {
		if err := c.Send(rawSubmit(next + uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < cliWin; i++ {
		id, err := recvResp(t, c)
		if err != nil {
			t.Fatal(err)
		}
		if id != next+uint64(i) {
			t.Fatalf("response id %d, want %d (FIFO violated)", id, next+uint64(i))
		}
	}
	next += cliWin

	// Phase 2: send a full server window of requests without reading.
	// All srvWin frames must park (respCredits are exhausted — we never
	// returned any), then drain in order as credits arrive.
	for i := 0; i < srvWin; i++ {
		if err := c.Send(rawSubmit(next + uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for drained := 0; drained < srvWin; drained += cliWin {
		cf := binary.AppendUvarint([]byte{fCredit}, cliWin)
		if err := c.Send(cf); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cliWin; i++ {
			id, err := recvResp(t, c)
			if err != nil {
				t.Fatal(err)
			}
			if want := next + uint64(drained+i); id != want {
				t.Fatalf("parked response id %d, want %d (FIFO violated)", id, want)
			}
		}
	}
	next += srvWin

	// Phase 3: overrun. With zero response credits outstanding, srvWin
	// frames park legally; one more exceeds the advertised window and must
	// poison the connection — a protocol violation, not a silent drop.
	for i := 0; i <= srvWin; i++ {
		if err := c.Send(rawSubmit(next + uint64(i))); err != nil {
			return // connection already torn down: also a pass
		}
	}
	if _, err := recvResp(t, c); err == nil {
		t.Fatal("server answered past the advertised window instead of poisoning the connection")
	}
}

// TestHostileCreditClampServer sends a maximal credit grant to the server:
// the clamp must pin its response window at the client's advertised window,
// so a subsequent flood still parks and the overrun still poisons — the
// hostile grant must not unblock the stream past its window.
func TestHostileCreditClampServer(t *testing.T) {
	testHostileCreditClampServer(t, NewLoopbackTransport())
}

func testHostileCreditClampServer(t *testing.T, lt Transport) {
	const cliWin, srvWin = 4, 8
	c, _, _, _ := rawPair(t, lt,
		TransportConfig{RecvWindow: cliWin},
		TransportConfig{RecvWindow: srvWin})

	huge := binary.AppendUvarint([]byte{fCredit}, ^uint64(0))
	if err := c.Send(huge); err != nil {
		t.Fatal(err)
	}
	// Flood: cliWin answerable + srvWin parked + 1 overrun. If the clamp
	// failed, the huge grant would let the server answer everything and
	// the connection would survive.
	total := cliWin + srvWin + 1
	for i := 0; i < total; i++ {
		if err := c.Send(rawSubmit(uint64(i + 1))); err != nil {
			break
		}
	}
	got := 0
	for {
		if _, err := recvResp(t, c); err != nil {
			break
		}
		got++
		if got > cliWin {
			break
		}
	}
	if got != cliWin {
		t.Fatalf("server answered %d frames after hostile credit, want exactly %d (window clamp)", got, cliWin)
	}
}

// TestHostileCreditClampClient forges oversized server grants into the
// peer's frame handler: reqCredits must clamp at the server's
// advertised window.
func TestHostileCreditClampClient(t *testing.T) {
	testHostileCreditClampClient(t, NewLoopbackTransport())
}

func testHostileCreditClampClient(t *testing.T, lt Transport) {
	const cliWin, srvWin = 4, 8
	_, p, _, _ := rawPair(t, lt,
		TransportConfig{RecvWindow: cliWin},
		TransportConfig{RecvWindow: srvWin})

	// Consume two credits so the clamp has something to restore past.
	id1, _, err := p.begin("probe")
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := p.begin("probe")
	if err != nil {
		t.Fatal(err)
	}
	forged := binary.AppendUvarint([]byte{fCredit}, 1<<40)
	if !p.onFrame(forged, &netArena{}) {
		t.Fatal("well-formed credit frame poisoned the connection")
	}
	p.pendMu.Lock()
	got := p.reqCredits
	p.pendMu.Unlock()
	if got != srvWin {
		t.Fatalf("reqCredits %d after hostile grant, want clamp at srvWin %d", got, srvWin)
	}
	// Malformed credit (torn uvarint) must poison.
	if p.onFrame([]byte{fCredit, 0x80}, &netArena{}) {
		t.Fatal("malformed credit frame accepted")
	}
	p.abort(id1)
	p.abort(id2)
}

// TestReattestTableBounded bounds the warm re-attestation tables: with the
// server's table capped at 2, a third label evicts the first, and a warm
// re-transfer of the evicted label must fall back to the cold path (full
// certificate) transparently — an eviction costs one re-crossing, never an
// error.
func TestReattestTableBounded(t *testing.T) { testReattestTableBounded(t, NewLoopbackTransport()) }

func testReattestTableBounded(t *testing.T, lt Transport) {
	front, store := bootK(t), bootK(t)
	nStore := NewNodeWithConfig(store, TransportConfig{ReattestCap: 2})
	l, err := lt.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	nFront := NewNode(front)
	peer, err := nFront.Dial(lt, "store")
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
	peer2, err := nFront2.Dial(lt, "store")
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
// the dialer's hello goes out, so the hello's Send fails — and the dialer
// must still report the typed rejection, not the closed pipe.
func TestShedRejectionBeforeHello(t *testing.T) {
	n := NewNode(bootK(t))
	defer n.Close()
	cli, srv := newLoopPipe()
	if err := srv.Send(appendErrFrame(nil, 0, "accept",
		abiErr(EAGAIN, "accept", "node connection limit reached"))); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, err := n.handshakeClient(cli); !errors.Is(err, ErrAgain) {
		t.Fatalf("handshake against a shed connection: got %v, want EAGAIN", err)
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
