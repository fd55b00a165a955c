// Transport runtime: one goroutine per connection end.
//
// Every established connection end — the accepted serverConn and the
// dialed Peer — runs on one goroutine executing drive. It takes the next
// frame and runs the end's onFrame inline; when no further frame is
// available without waiting, it flushes the end's egress combiner, trims
// pooled scratch and blocks for the next frame; when a read fails or
// onFrame returns false, it returns and its caller tears the end down.
//
// Waiting is the reader's job. TCP on Linux parks in the runtime netpoller
// (tcpreader_linux.go), a loopback end waits on its pipe's condvar, and any
// other Conn blocks in its own Recv. Closing a Conn wakes its blocked
// reader, so tearing a connection down is a Close and nothing more.
//
// A handler runs on its connection's goroutine, so a handler that blocks
// holds up only its own connection. That includes a handler making a
// nested synchronous remote call: it waits on a Peer whose own goroutine
// delivers the answer.
package kernel

// TransportConfig sizes a Node's transport runtime. The zero value selects
// every default; NewNode uses it.
type TransportConfig struct {
	// MaxInflight bounds the pipelined request window per dialed peer: at
	// most this many requests may be outstanding before begin() fails with
	// EAGAIN. Defaults to DefaultMaxInflight (128).
	MaxInflight int
	// RecvWindow is the credit-based receive window this node advertises
	// per connection in the handshake: the peer may have at most this many
	// unacknowledged frames toward us before it must stall. Defaults to
	// DefaultRecvWindow (128); clamped to maxRecvWindow.
	RecvWindow int
	// MaxConns caps accepted connections (handshaking + established).
	// Beyond it the node sheds load gracefully: accept, answer with a
	// typed EAGAIN error frame, close — never a silent drop. Defaults to
	// DefaultMaxConns.
	MaxConns int
	// ReattestCap bounds the per-connection warm re-attestation tables
	// (client-side attested fingerprints, server-side verified
	// certificates) with LRU eviction; an evicted certificate simply
	// re-crosses cold. Defaults to DefaultReattestCap.
	ReattestCap int
}

// Transport-runtime defaults (see TransportConfig).
const (
	DefaultMaxInflight = 128
	DefaultRecvWindow  = 128
	DefaultMaxConns    = 1 << 17
	DefaultReattestCap = 1024
)

// maxRecvWindow caps the advertised receive window, and with it the
// request backlog a server holds and the frames a sender may have queued
// in a loopback pipe.
const maxRecvWindow = 192

// withDefaults resolves the zero fields.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.RecvWindow <= 0 {
		c.RecvWindow = DefaultRecvWindow
	}
	if c.RecvWindow > maxRecvWindow {
		c.RecvWindow = maxRecvWindow
	}
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.ReattestCap <= 0 {
		c.ReattestCap = DefaultReattestCap
	}
	return c
}

// netArena is one connection end's free list of frame buffers, confined to
// its goroutine. Frames are read into arena buffers, decoded in place, and
// recycled after dispatch for frame types whose payload cannot outlive the
// exchange (see serverConn.process), so a pipelined burst reuses its own
// buffers. The arena refills from and drains into the global framePool,
// which couples the ingress recycle stream to the egress combiners.
type netArena struct {
	bufs [][]byte
}

// arenaMaxBufs bounds the free list; arenaKeepCap (shared with the
// submission arenas in batch.go) bounds each buffer so one huge frame
// cannot pin memory.
const arenaMaxBufs = 32

func (a *netArena) get(n int) []byte {
	for i := len(a.bufs) - 1; i >= 0; i-- {
		if cap(a.bufs[i]) >= n {
			b := a.bufs[i]
			a.bufs[i] = a.bufs[len(a.bufs)-1]
			a.bufs[len(a.bufs)-1] = nil
			a.bufs = a.bufs[:len(a.bufs)-1]
			return b[:n]
		}
	}
	return getFrameBuf(n)
}

func (a *netArena) put(b []byte) {
	if cap(b) == 0 || cap(b) > arenaKeepCap {
		return
	}
	if len(a.bufs) >= arenaMaxBufs {
		putFrameBuf(b)
		return
	}
	a.bufs = append(a.bufs, b[:0])
}

// release returns every buffer to the frame pool. drive calls it before
// each wait, so an idle connection end holds no frame buffer.
func (a *netArena) release() {
	for i, b := range a.bufs {
		putFrameBuf(b)
		a.bufs[i] = nil
	}
	a.bufs = a.bufs[:0]
}

// frameReader is the ingress side of one connection end. next returns the
// next frame, owned by the caller; with wait false it returns (nil, nil)
// when no frame is available without blocking. A reader that copies frames
// out of a stream copies them into ar's buffers.
type frameReader interface {
	next(ar *netArena, wait bool) ([]byte, error)
}

// readerFor picks the reader for c: a loopback end reads its pipe's queue,
// TCP reads the socket directly where the raw reader builds, and any other
// Conn is read through its blocking Recv.
func readerFor(c Conn, m *kernelMetrics, mkey uint64) frameReader {
	switch c := c.(type) {
	case *loopConn:
		return c
	case *tcpConn:
		if r := newTCPReader(c, m, mkey); r != nil {
			return r
		}
	}
	return recvReader{c}
}

// recvReader reads a Conn the runtime does not recognise through its
// blocking Recv. It never reports a frame as available without waiting, so
// drive flushes after every frame.
type recvReader struct{ c Conn }

func (r recvReader) next(_ *netArena, wait bool) ([]byte, error) {
	if !wait {
		return nil, nil
	}
	return r.c.Recv()
}

// drive runs one connection end on the calling goroutine until a read
// fails or onFrame returns false. idle, which may be nil, runs whenever no
// further frame is available without waiting — the end flushes its egress
// combiner and trims there, and idle reporting false ends the connection —
// and once more before drive returns, so that a final response (the error
// frame ahead of a poison close, or answers in flight at an orderly
// shutdown) still leaves.
func drive(r frameReader, onFrame func([]byte, *netArena) bool, idle func() bool) {
	var ar netArena
	defer ar.release()
	wait := false
	for {
		f, err := r.next(&ar, wait)
		if err != nil {
			break
		}
		if f == nil {
			if idle != nil && !idle() {
				return
			}
			ar.release()
			wait = true
			continue
		}
		wait = false
		if !onFrame(f, &ar) {
			break
		}
	}
	if idle != nil {
		idle()
	}
}
