package kernel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Backpressure: the dialer's in-flight window is a connection's only
// bound, the dialed peer's goroutine never writes, and a peer that stops
// reading stalls only its own connection (DESIGN.md, "Backpressure").

// withinBound runs f and fails the test, printing every goroutine's stack,
// if f has not returned after d.
func withinBound(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<22)
		t.Fatalf("not done after %v:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// WithinBound is withinBound for the external test package.
var WithinBound = withinBound

// stallTransport is an in-memory transport whose Write blocks while the
// other end holds more than q unread writes, as a write into a full socket
// buffer does; with q = 0 a Write returns only once its bytes are read. A
// Read takes bytes of one write at most, so a connection end reads, and
// answers, one egress flush at a time. It has one listener. Its
// connections expose no raw descriptor, so both ends are read through
// their Read.
type stallTransport struct {
	q      int
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func newStallTransport(q int) *stallTransport {
	return &stallTransport{q: q, accept: make(chan Conn), done: make(chan struct{})}
}

func (t *stallTransport) Listen(string) (Listener, error) { return t, nil }

func (t *stallTransport) Dial(string) (Conn, error) {
	p := &stallPipe{}
	p.cond = sync.NewCond(&p.mu)
	select {
	case t.accept <- &stallConn{p: p, q: t.q, self: 1}:
		return &stallConn{p: p, q: t.q, self: 0}, nil
	case <-t.done:
		return nil, errLoopClosed
	}
}

func (t *stallTransport) Accept() (Conn, error) {
	select {
	case c := <-t.accept:
		return c, nil
	case <-t.done:
		return nil, errLoopClosed
	}
}

func (t *stallTransport) Close() error {
	t.once.Do(func() { close(t.done) })
	return nil
}

func (t *stallTransport) Addr() string { return "stall" }

// stallPipe is the state both ends of one stallTransport connection share.
// The condvar is broadcast on every change.
type stallPipe struct {
	mu      sync.Mutex
	cond    *sync.Cond
	unread  [2][][]byte // unread[i]: the unread bytes of each write toward end i
	blocked [2]int      // Writes toward end i waiting for it to read
	closed  bool
}

// stallConn is one end of a stallPipe: it reads unread[self] and writes
// toward the other end.
type stallConn struct {
	p       *stallPipe
	q, self int
}

func (c *stallConn) Write(b []byte) (int, error) {
	p, to := c.p, 1-c.self
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, errLoopClosed
	}
	p.unread[to] = append(p.unread[to], append([]byte(nil), b...))
	p.cond.Broadcast()
	p.blocked[to]++
	for len(p.unread[to]) > c.q && !p.closed {
		p.cond.Wait()
	}
	p.blocked[to]--
	if p.closed {
		return 0, errLoopClosed
	}
	return len(b), nil
}

func (c *stallConn) Read(b []byte) (int, error) {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.unread[c.self]) == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return 0, errLoopClosed
	}
	w := p.unread[c.self][0]
	n := copy(b, w)
	if n == len(w) {
		p.unread[c.self] = p.unread[c.self][1:]
	} else {
		p.unread[c.self][0] = w[n:]
	}
	p.cond.Broadcast()
	return n, nil
}

func (c *stallConn) Close() error {
	c.p.mu.Lock()
	c.p.closed = true
	c.p.cond.Broadcast()
	c.p.mu.Unlock()
	return nil
}

// inbound reports the writes waiting for this end to read them and the
// other end's Writes blocked until it does.
func (c *stallConn) inbound() (unread, blocked int) {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return len(c.p.unread[c.self]), c.p.blocked[c.self]
}

// echoPair boots a storing node serving an "echo" service over tr and a
// front node, and returns the front kernel and both nodes, closed when the
// test ends.
func echoPair(t *testing.T, tr Transport) (*Kernel, *Node, *Node) {
	t.Helper()
	front, store := bootK(t), bootK(t)
	nStore := NewNode(store)
	l, err := tr.Listen("store")
	if err != nil {
		t.Fatal(err)
	}
	nStore.Serve(l)
	srv, err := store.NewSession([]byte("echo-srv"))
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
	nFront := NewNode(front)
	t.Cleanup(func() {
		nFront.Close()
		nStore.Close()
	})
	return front, nFront, nStore
}

// callEcho makes n remote calls to "echo" through peer from a fresh
// session on front.
func callEcho(front *Kernel, peer *Peer, name string, n int) error {
	s, err := front.NewSession([]byte(name))
	if err != nil {
		return err
	}
	defer s.Exit()
	c, err := s.Connect(peer, "echo")
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := s.CallRemote(c, &Msg{Op: "read", Obj: "o"}); err != nil {
			return fmt.Errorf("call %d: %w", i, err)
		}
	}
	return nil
}

// sendCounter counts the Writes made through it.
type sendCounter struct {
	Conn
	sends atomic.Int64
}

func (c *sendCounter) Write(p []byte) (int, error) {
	c.sends.Add(1)
	return c.Conn.Write(p)
}

// countingTransport wraps every Conn it dials in a sendCounter.
type countingTransport struct{ Transport }

func (t countingTransport) Dial(addr string) (Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &sendCounter{Conn: c}, nil
}

// TestPeerReaderNeverSends delivers 100 responses through a dialed peer's
// frame handler, more than half a 128-request window, and requires that
// delivering them wrote nothing to the connection: the peer's goroutine
// only reads, so it keeps draining a server that is blocked writing.
func TestPeerReaderNeverSends(t *testing.T) {
	c, _, _ := rawPair(t, countingTransport{NewLoopbackTransport()}, "store", TransportConfig{}, TransportConfig{})
	sc, p := c.Conn.(*sendCounter), c.p
	handshake := sc.sends.Load()
	for i := 0; i < 100; i++ {
		id, ch, err := p.begin("probe")
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if !p.onFrame(binary.AppendUvarint([]byte{fOK}, id)) {
			t.Fatalf("response %d poisoned the peer", i)
		}
		<-ch
		p.putChan(ch)
	}
	if n := sc.sends.Load() - handshake; n != 0 {
		t.Fatalf("the peer's frame handler wrote %d times while delivering 100 responses", n)
	}
}

// TestInflightWindow fills a peer's in-flight window: maxInflight requests
// begin, the next fails with EAGAIN, and an aborted request and a
// delivered response each free exactly one slot.
func TestInflightWindow(t *testing.T) {
	c, _, _ := rawPair(t, NewLoopbackTransport(), "store", TransportConfig{}, TransportConfig{})
	p := c.p
	ids := make([]uint64, maxInflight)
	chans := make([]chan netResp, maxInflight)
	for i := range ids {
		var err error
		if ids[i], chans[i], err = p.begin("probe"); err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
	}
	full := func(after string) {
		t.Helper()
		if _, _, err := p.begin("probe"); !errors.Is(err, ErrAgain) {
			t.Fatalf("begin %s: got %v, want EAGAIN", after, err)
		}
		if n := p.Pending(); n != maxInflight {
			t.Fatalf("%d pending %s, want %d", n, after, maxInflight)
		}
	}
	full("with the window full")

	p.abort(ids[0])
	if _, _, err := p.begin("probe"); err != nil {
		t.Fatalf("begin after an abort: %v", err)
	}
	full("after an abort and one begin")

	if !p.onFrame(binary.AppendUvarint([]byte{fOK}, ids[1])) {
		t.Fatal("response poisoned the peer")
	}
	<-chans[1]
	if _, _, err := p.begin("probe"); err != nil {
		t.Fatalf("begin after a delivered response: %v", err)
	}
	full("after a delivered response and one begin")
}

// TestBlockedWritesNoDeadlock drives one Peer with several callers over a
// transport whose Write blocks while the other end holds q unread writes.
// The server's goroutine blocks writing responses whenever the peer's
// goroutine falls behind; since the peer's goroutine never writes, it
// always drains them, and every call returns.
func TestBlockedWritesNoDeadlock(t *testing.T) {
	const calls = 400
	for _, q := range []int{0, 1} {
		for _, callers := range []int{3, 5} {
			t.Run(fmt.Sprintf("q%d/callers%d", q, callers), func(t *testing.T) {
				tr := newStallTransport(q)
				front, nFront, _ := echoPair(t, tr)
				peer, err := nFront.Dial(tr, "store")
				if err != nil {
					t.Fatal(err)
				}
				errs := make([]error, callers)
				withinBound(t, 20*time.Second, func() {
					var wg sync.WaitGroup
					for w := range errs {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							errs[w] = callEcho(front, peer, fmt.Sprintf("stall-%d", w), calls)
						}(w)
					}
					wg.Wait()
				})
				for w, err := range errs {
					if err != nil {
						t.Errorf("caller %d: %v", w, err)
					}
				}
			})
		}
	}
}

// TestSlowConsumerStallsOnlyItsStream attests a raw client whose first q
// pipelined requests are answered in order, and which then sends requests
// and never reads. The server's goroutine answers q of them and blocks
// writing the next; meanwhile a second peer to the same node completes
// calls, and closing the raw connection ends the stalled goroutine and
// returns the node's live-connection gauge to its baseline.
func TestSlowConsumerStallsOnlyItsStream(t *testing.T) {
	const q = 2
	tr := newStallTransport(q)
	front, nFront, nStore := echoPair(t, tr)
	peer, err := nFront.Dial(tr, "store")
	if err != nil {
		t.Fatal(err)
	}
	base := nStore.k.Metrics().NetLiveConns

	raw := dialRaw(t, nFront, tr, "store")
	// Pipelined requests are answered in arrival order.
	for id := uint64(1); id <= q; id++ {
		if err := raw.send(rawSubmit(id)); err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(1); id <= q; id++ {
		if got, err := recvResp(t, raw); err != nil || got != id {
			t.Fatalf("response echoes id %d (err %v), want %d", got, err, id)
		}
	}
	// From here on the client never reads.
	for id := uint64(q + 1); id <= 2*q+1; id++ {
		if err := raw.send(rawSubmit(id)); err != nil {
			t.Fatal(err)
		}
	}
	stalled := func() bool {
		unread, blocked := raw.Conn.(*stallConn).inbound()
		return unread == q+1 && blocked == 1
	}
	waitUntil(t, "the server's write of response q+1 to block", stalled)

	withinBound(t, 20*time.Second, func() { err = callEcho(front, peer, "beside-the-stall", 100) })
	if err != nil {
		t.Fatalf("second peer: %v", err)
	}
	if !stalled() {
		t.Fatal("the stalled connection moved while the second peer was served")
	}

	raw.Close()
	waitUntil(t, "NetLiveConns to return to its baseline", func() bool {
		return nStore.k.Metrics().NetLiveConns == base
	})
}

// waitUntil polls cond for up to 10 s, failing the test with what it was
// waiting for if cond never holds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
