// Transport runtime: one goroutine per connection end.
//
// Every established connection end — the accepted serverConn and the
// dialed Peer — runs on one goroutine executing drive. It takes the next
// frame and runs the end's onFrame inline; when no further frame is
// available without waiting, it flushes the end's egress combiner, trims
// pooled scratch and blocks for the next frame; when a read fails or
// onFrame returns false, it returns and its caller tears the end down.
//
// A Conn is a byte stream, and each end has one splitter that cuts it into
// frames at their length prefixes (nextFrame). The splitter is built before
// the handshake, which reads through it, and drive takes it over, so bytes
// that arrived in the same read as the last handshake frame stay with the
// end. The read is the only part that differs between transports: a TCP
// end on Linux reads its socket directly and parks in the runtime
// netpoller (tcpreader_linux.go), and every other Conn is read through its
// Read, which waits. Closing a Conn wakes its blocked reader, so tearing a
// connection down is a Close and nothing more.
//
// drive moves frames and holds none: the splitter copies each frame into a
// framePool buffer (egress.go), and the serving end hands a request frame
// whose payload cannot outlive its exchange straight back to it
// (serverConn.onFrame), so an idle end keeps no frame buffer.
//
// A handler runs on its connection's goroutine, so a handler that blocks
// holds up only its own connection. That includes a handler making a
// nested synchronous remote call: it waits on a Peer whose own goroutine
// delivers the answer.
package kernel

import (
	"encoding/binary"
	"io"
	"sync"
)

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

// rxSize is the receive buffer: one read of a socket takes up to this much
// of the stream, which covers a full egress flush (egressHighWater) from
// the peer.
const rxSize = 16 << 10

// rxPool holds receive buffers. A pointer to an array goes through a
// sync.Pool without allocating, where a slice header would not.
var rxPool = sync.Pool{New: func() any { return new([rxSize]byte) }}

// byteQueue holds bytes in arrival order in one buffer, from b[off]; b is
// nil when it holds none, so an empty queue holds no buffer. The splitter
// keeps the bytes it read and has not cut yet in one, and a loopback pipe
// keeps each direction's unread bytes in one.
type byteQueue struct {
	b   []byte
	off int
}

// bytes returns the held bytes.
func (q *byteQueue) bytes() []byte { return q.b[q.off:] }

// grow makes room for n more bytes behind the held ones. They move to the
// front of the buffer, if what was consumed before them is at least as
// long as they are, or else into a framePool buffer of size bytes (or of
// as many as they and n take, if more), so with size at least twice the
// old capacity every byte is copied a bounded number of times.
func (q *byteQueue) grow(n, size int) {
	if len(q.b)+n <= cap(q.b) {
		return
	}
	held := q.bytes()
	if q.off >= len(held) && len(held)+n <= cap(q.b) {
		q.b = append(q.b[:0], held...) // compact: the copy may overlap
	} else {
		b := getFrameBuf(max(len(held)+n, size))[:0]
		b = append(b, held...)
		putFrameBuf(q.b)
		q.b = b
	}
	q.off = 0
}

// push appends p, growing the buffer to size bytes if it does not fit.
func (q *byteQueue) push(p []byte, size int) {
	q.grow(len(p), size)
	q.b = append(q.b, p...)
}

// consume drops the first n held bytes; the buffer goes back to framePool
// once none remain.
func (q *byteQueue) consume(n int) {
	if q.off += n; q.off == len(q.b) {
		putFrameBuf(q.b)
		q.b, q.off = nil, 0
	}
}

// splitter is the ingress of one connection end, confined to the end's
// goroutine: it reads the end's byte stream and returns it frame by frame.
// The queue holds the bytes read but not yet returned as a frame.
type splitter struct {
	byteQueue
	c   Conn
	raw *rawReader // non-nil: the socket is read directly (fill)

	// end is the length, prefix included, of the frame the held bytes
	// begin, once they hold its prefix; 0 before.
	end int
	// pre receives a length prefix read through Conn.Read while the
	// splitter holds nothing else, so a waiting end holds no pooled buffer.
	pre [4]byte
}

// newSplitter builds the splitter for c, before its handshake.
func newSplitter(c Conn, m *kernelMetrics, mkey uint64) *splitter {
	return &splitter{c: c, raw: newRawReader(c, m, mkey)}
}

// next returns the next frame, owned by the caller and recyclable with
// putFrameBuf. With wait false it returns (nil, nil) when no frame is
// available without blocking.
//
//nexus:noalloc
func (s *splitter) next(wait bool) ([]byte, error) {
	for {
		if f, err := s.cut(); f != nil || err != nil {
			return f, err
		}
		var ok bool
		var err error
		if s.raw == nil { // called here, not in fill, to park one frame shallower
			ok, err = s.readConn(wait)
		} else {
			ok, err = s.fill(wait)
		}
		if !ok {
			return nil, err
		}
	}
}

// room returns the size of the buffer the held bytes move to when need
// bytes do not fit in theirs. The buffer of a frame grows with the bytes
// that arrived, doubling from a receive buffer's size, and takes the whole
// frame once a quarter of it is in. So a length prefix makes the splitter
// hold no more than a receive buffer or four times the bytes behind it,
// and assembling a frame allocates less than twice its length.
func (s *splitter) room(need int) int {
	size := max(need, 2*cap(s.b))
	if e := s.end; e >= need {
		size = min(e, max(size, rxSize))
		if 4*need >= e {
			size = e
		}
	}
	return size
}

// hold appends p, bytes read and not yet cut, to the held bytes.
func (s *splitter) hold(p []byte) { s.push(p, s.room(len(s.bytes())+len(p))) }

// readConn reads s's Conn once, if it may wait, into the free space of the
// held buffer, and ok reports that it read bytes. While the splitter holds
// nothing it reads a length prefix into pre, so an end waiting in Read
// holds no pooled buffer. A read that returns bytes drops its error, and
// the next read reports it again.
func (s *splitter) readConn(wait bool) (ok bool, err error) {
	if !wait {
		return false, nil
	}
	switch {
	case s.b == nil:
		s.b = s.pre[:0]
	case len(s.b) == cap(s.b):
		s.grow(1, s.room(len(s.bytes())+1))
	}
	n, err := s.c.Read(s.b[len(s.b):cap(s.b)])
	if s.b = s.b[:len(s.b)+n]; len(s.b) == 0 {
		s.b = nil
	}
	if n == 0 && err == nil {
		err = io.ErrNoProgress
	}
	return n > 0, err
}

// nextFrame reads the length prefix at the front of b. end is the number
// of bytes the frame spans, prefix included, once b holds the prefix, and
// 0 before; body is the frame's body, aliasing b, once b holds all of it,
// and nil before.
func nextFrame(b []byte) (body []byte, end int, err error) {
	if len(b) < 4 {
		return nil, 0, nil
	}
	fn := binary.LittleEndian.Uint32(b)
	if fn > maxNetFrame {
		return nil, 0, errFrameTooLarge
	}
	end = 4 + int(fn)
	if len(b) < end {
		return nil, end, nil
	}
	return b[4:end], end, nil
}

// cut returns the first whole frame among the held bytes, or nil when
// there is none. It copies the frame into a framePool buffer, except that
// a frame too long for the pool to keep, alone in its buffer, is returned
// in place.
func (s *splitter) cut() ([]byte, error) {
	body, end, err := nextFrame(s.bytes())
	if s.end = end; body == nil {
		return nil, err
	}
	s.end = 0
	if s.off == 0 && end == len(s.b) && len(body) > arenaKeepCap {
		s.b = nil
		return body, nil
	}
	f := getFrameBuf(len(body))
	copy(f, body)
	s.consume(end)
	return f, nil
}

// drive runs one connection end on the calling goroutine until a read
// fails or onFrame returns false. idle, which may be nil, runs whenever no
// further frame is available without waiting — the end flushes its egress
// combiner and trims there, and idle reporting false ends the connection —
// and once more before drive returns, so that a final response (the error
// frame ahead of a poison close, or answers in flight at an orderly
// shutdown) still leaves.
func drive(in *splitter, onFrame func([]byte) bool, idle func() bool) {
	wait := false
	for {
		f, err := in.next(wait)
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
