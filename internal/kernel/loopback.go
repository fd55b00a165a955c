package kernel

import (
	"errors"
	"sync"
)

// LoopbackTransport is the in-memory transport backend: nodes in one
// process connect by name, bytes travel over an in-memory pipe, and the
// full handshake/codec/ingress path runs exactly as it would over TCP.
// Tests and single-process experiments use it; nothing about the
// attestation plane knows the difference.
type LoopbackTransport struct {
	mu        sync.Mutex
	listeners map[string]*loopListener
}

// NewLoopbackTransport creates an empty in-memory transport.
func NewLoopbackTransport() *LoopbackTransport {
	return &LoopbackTransport{listeners: map[string]*loopListener{}}
}

// errLoopClosed reports an operation on a closed loopback endpoint.
var errLoopClosed = errors.New("kernel: loopback endpoint closed")

// Listen binds a name. Names are a flat namespace per transport instance.
func (t *LoopbackTransport) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.listeners[addr]; ok {
		return nil, errors.New("kernel: loopback address in use: " + addr)
	}
	l := &loopListener{t: t, addr: addr, accept: make(chan Conn, 8), done: make(chan struct{})}
	t.listeners[addr] = l
	return l, nil
}

// Dial connects to a listening name.
func (t *LoopbackTransport) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	l, ok := t.listeners[addr]
	t.mu.Unlock()
	if !ok {
		return nil, errors.New("kernel: no loopback listener at " + addr)
	}
	a, b := newLoopPipe()
	select {
	case l.accept <- b:
		// Re-check after winning the send race: if the listener closed
		// concurrently, the buffered conn may never be accepted. Closing
		// our end unblocks both halves whether or not Close's drain
		// already reaped it (loopConn ends share one pipe state).
		select {
		case <-l.done:
			a.Close()
			return nil, errLoopClosed
		default:
			return a, nil
		}
	case <-l.done:
		return nil, errLoopClosed
	}
}

type loopListener struct {
	t      *LoopbackTransport
	addr   string
	accept chan Conn
	done   chan struct{}
	once   sync.Once
}

func (l *loopListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, errLoopClosed
	}
}

func (l *loopListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.t.mu.Lock()
		if l.t.listeners[l.addr] == l {
			delete(l.t.listeners, l.addr)
		}
		l.t.mu.Unlock()
		// Reap connections that were enqueued but never accepted, so a
		// Dial that raced the close errors out of its handshake instead
		// of blocking forever. Dials landing after this drain observe the
		// closed done channel and close their own end (see Dial).
		for {
			select {
			case c := <-l.accept:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *loopListener) Addr() string { return l.addr }

// loopState is the shared state of one loopback pipe: a byte queue per
// direction, the condvars their readers wait on, and the closed flag. mu
// nests only the frame-pool lock, which the queues take their buffers from.
type loopState struct {
	mu     sync.Mutex
	cond   [2]sync.Cond
	q      [2]byteQueue
	closed bool
	ends   [2]loopConn
}

// loopConn is one end of an in-memory duplex byte pipe. Closing either end
// unblocks both. A direction holds a buffer only while it holds unread
// bytes, so an idle pipe holds none.
type loopConn struct {
	st *loopState
	w  int // this end writes st.q[w] and reads st.q[1-w]
}

func newLoopPipe() (Conn, Conn) {
	st := &loopState{}
	st.cond[0].L = &st.mu
	st.cond[1].L = &st.mu
	st.ends = [2]loopConn{{st, 0}, {st, 1}}
	return &st.ends[0], &st.ends[1]
}

// Write never blocks: the queue grows on demand. A dialed peer's in-flight
// window bounds how deep the two ends of a Node connection make it, but
// nothing bounds a peer that sends requests and never reads its responses
// (DESIGN.md, "Backpressure").
func (c *loopConn) Write(p []byte) (int, error) {
	st := c.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return 0, errLoopClosed
	}
	q := &st.q[c.w]
	q.push(p, 2*cap(q.b))
	st.cond[c.w].Signal()
	return len(p), nil
}

// Read blocks until the pipe holds bytes for this end or closes. Bytes
// written before a close still drain, so an orderly shutdown delivers
// responses already in flight. An idle end's goroutine waits here, so
// Read unlocks without defer: the smaller frame keeps more parked stacks
// at their first size (conn/idle-mem).
func (c *loopConn) Read(p []byte) (int, error) {
	st, r := c.st, 1-c.w
	q := &st.q[r]
	st.mu.Lock()
	for q.b == nil && !st.closed {
		st.cond[r].Wait()
	}
	if q.b == nil {
		st.mu.Unlock()
		return 0, errLoopClosed
	}
	n := copy(p, q.bytes())
	q.consume(n)
	st.mu.Unlock()
	return n, nil
}

func (c *loopConn) Close() error {
	st := c.st
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	st.cond[0].Broadcast()
	st.cond[1].Broadcast()
	return nil
}
