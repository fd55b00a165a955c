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
// drive moves frames and holds none: a reader that copies frames out of a
// stream takes each buffer from framePool (egress.go), and the serving end
// hands a request frame whose payload cannot outlive its exchange straight
// back to it (serverConn.onFrame), so an idle end keeps no frame buffer.
//
// A handler runs on its connection's goroutine, so a handler that blocks
// holds up only its own connection. That includes a handler making a
// nested synchronous remote call: it waits on a Peer whose own goroutine
// delivers the answer.
package kernel

// TransportConfig sizes a Node's transport runtime. The zero value selects
// every default; NewNode uses it.
type TransportConfig struct {
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
	DefaultMaxConns    = 1 << 17
	DefaultReattestCap = 1024
)

// maxInflight is the in-flight window of a dialed peer: at most this many
// requests may be outstanding before begin fails with EAGAIN. Every frame
// a server sends answers one of them, so the window bounds both directions
// of a connection (DESIGN.md, "Backpressure").
const maxInflight = 128

// withDefaults resolves the zero fields.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.MaxConns <= 0 {
		c.MaxConns = DefaultMaxConns
	}
	if c.ReattestCap <= 0 {
		c.ReattestCap = DefaultReattestCap
	}
	return c
}

// frameReader is the ingress side of one connection end. next returns the
// next frame, owned by the caller; with wait false it returns (nil, nil)
// when no frame is available without blocking. A reader that copies frames
// out of a stream copies them into framePool buffers.
type frameReader interface {
	next(wait bool) ([]byte, error)
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

func (r recvReader) next(wait bool) ([]byte, error) {
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
func drive(r frameReader, onFrame func([]byte) bool, idle func() bool) {
	wait := false
	for {
		f, err := r.next(wait)
		if err != nil {
			break
		}
		if f == nil {
			if idle != nil && !idle() {
				return
			}
			wait = true
			continue
		}
		wait = false
		if !onFrame(f) {
			break
		}
	}
	if idle != nil {
		idle()
	}
}
