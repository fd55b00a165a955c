package kernel

import (
	"errors"
	"sync"
)

// LoopbackTransport is the in-memory transport backend: nodes in one
// process connect by name, frames travel over an in-memory ring, and the
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

// loopKeepFrames bounds the queue backing array retained after a
// direction fully drains, so an idle connection pins a few slots of slice
// header, not a deep ring.
const loopKeepFrames = 64

// loopState is the shared state of one loopback pipe: two frame queues
// (one per direction), the condvars their readers wait on, and the closed
// flag. mu is a leaf lock.
type loopState struct {
	mu     sync.Mutex
	cond   [2]*sync.Cond
	q      [2][][]byte
	head   [2]int
	closed bool
}

// popLocked removes the next frame of direction i, resetting (and, above
// the retention bound, releasing) the backing array on full drain.
func (st *loopState) popLocked(i int) ([]byte, bool) {
	if st.head[i] == len(st.q[i]) {
		return nil, false
	}
	f := st.q[i][st.head[i]]
	st.q[i][st.head[i]] = nil
	st.head[i]++
	if st.head[i] == len(st.q[i]) {
		if cap(st.q[i]) > loopKeepFrames {
			st.q[i] = nil
		} else {
			st.q[i] = st.q[i][:0]
		}
		st.head[i] = 0
	}
	return f, true
}

// loopConn is one end of an in-memory duplex pipe. Closing either end
// unblocks both. It is its own frameReader: the connection's goroutine
// takes frames straight off the pipe's queue and waits on its condvar, and
// since the queues grow on demand and shrink when drained, an idle pipe
// holds almost no memory.
type loopConn struct {
	st   *loopState
	w, r int // this end writes st.q[w], reads st.q[r]
}

func newLoopPipe() (Conn, Conn) {
	st := &loopState{}
	st.cond[0] = sync.NewCond(&st.mu)
	st.cond[1] = sync.NewCond(&st.mu)
	return &loopConn{st: st, w: 0, r: 1}, &loopConn{st: st, w: 1, r: 0}
}

// Send never blocks: the queue grows on demand, and the transport's
// credit window (each side advertises at most maxRecvWindow) bounds how
// deep a protocol-abiding peer can make it.
func (c *loopConn) Send(frame []byte) error {
	if len(frame) > maxNetFrame {
		return errors.New("kernel: frame exceeds maximum size")
	}
	st := c.st
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return errLoopClosed
	}
	st.q[c.w] = append(st.q[c.w], frame)
	st.cond[c.w].Signal()
	st.mu.Unlock()
	return nil
}

// Recv blocks for one frame. Frames queued before a close still drain, so
// an orderly shutdown delivers responses already in flight.
func (c *loopConn) Recv() ([]byte, error) { return c.next(nil, true) }

// next is the frameReader side of Recv: with wait false it returns
// (nil, nil) instead of blocking on an empty queue.
func (c *loopConn) next(_ *netArena, wait bool) ([]byte, error) {
	st := c.st
	st.mu.Lock()
	for wait && st.head[c.r] == len(st.q[c.r]) && !st.closed {
		st.cond[c.r].Wait()
	}
	f, ok := st.popLocked(c.r)
	closed := st.closed
	st.mu.Unlock()
	if ok {
		return f, nil
	}
	if closed {
		return nil, errLoopClosed
	}
	return nil, nil
}

func (c *loopConn) Close() error {
	st := c.st
	st.mu.Lock()
	already := st.closed
	st.closed = true
	if !already {
		st.cond[0].Broadcast()
		st.cond[1].Broadcast()
	}
	st.mu.Unlock()
	return nil
}
