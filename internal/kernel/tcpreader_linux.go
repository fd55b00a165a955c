//go:build linux

// The raw TCP reader: ingress for a TCP connection end on Linux.
//
// A pass reads the socket once, through the connection's RawConn.Read,
// into a pooled receive buffer, keeps what it read with the connection and
// splits whole frames off in user space (nextFrame). A reader that may not
// wait ends its pass at EAGAIN; one that may wait returns false from the
// read callback instead, which parks the goroutine in the runtime netpoller
// until the socket is readable. It gives its receive buffer back first, so
// a waiting connection holds no buffer, and closing the connection wakes
// it with an error.
package kernel

import (
	"encoding/binary"
	"io"
	"sync"
	"syscall"
)

// rxSize is the receive buffer: one read takes up to this much of the
// socket's queue, which covers a full egress flush (egressHighWater) from
// the peer.
const rxSize = 16 << 10

// rxPool holds receive buffers. A pointer to an array goes through a
// sync.Pool without allocating, where a slice header would not.
var rxPool = sync.Pool{New: func() any { return new([rxSize]byte) }}

// tcpReader is one TCP connection end's ingress, confined to the end's
// goroutine.
type tcpReader struct {
	raw  syscall.RawConn
	m    *kernelMetrics
	mkey uint64

	// pend holds bytes read but not yet returned as a frame, from pend[off];
	// nil when none, so an idle connection holds no buffer.
	pend []byte
	off  int
	// dry reports that the last read drained the socket: a short read or
	// EAGAIN. A pass that may not wait then ends without reading.
	dry bool

	// readFn is the RawConn.Read callback, bound once so a read allocates
	// nothing. rx, wait, n, err and parked are its arguments and results.
	readFn func(uintptr) bool
	rx     *[rxSize]byte
	wait   bool
	n      int
	err    error
	parked bool
}

// newTCPReader binds a reader to tc's socket, or returns nil when the
// connection exposes no raw descriptor.
func newTCPReader(tc *tcpConn, m *kernelMetrics, mkey uint64) frameReader {
	sc, ok := tc.c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	t := &tcpReader{raw: raw, m: m, mkey: mkey}
	t.readFn = t.read
	return t
}

// read is the RawConn.Read callback: one read(2) into the receive buffer.
// At EAGAIN a reader that may wait gives the buffer back and returns
// false, parking in the netpoller until the socket is readable; the
// runtime then calls read again.
func (t *tcpReader) read(fd uintptr) bool {
	if t.rx == nil {
		t.rx = rxPool.Get().(*[rxSize]byte)
	}
	for {
		t.n, t.err = syscall.Read(int(fd), t.rx[:])
		if t.err != syscall.EINTR {
			break
		}
	}
	if t.err == syscall.EAGAIN && t.wait {
		rxPool.Put(t.rx)
		t.rx = nil
		t.parked = true
		return false
	}
	return true
}

// next returns the next whole frame, copied into an arena buffer.
//
//nexus:noalloc
func (t *tcpReader) next(ar *netArena, wait bool) ([]byte, error) {
	for {
		if f, err := t.cut(ar); f != nil || err != nil {
			return f, err
		}
		if t.dry && !wait {
			return nil, nil
		}
		t.wait, t.parked = wait, false
		err := t.raw.Read(t.readFn)
		if err == nil {
			if t.parked {
				t.m.add(t.mkey, mNetPollWakeups, 1)
			}
			err = t.err
		}
		if err == nil && t.n == 0 {
			err = io.EOF
		}
		if err == nil {
			t.dry = t.n < rxSize
			t.hold(t.rx[:t.n], ar)
		}
		if t.rx != nil {
			rxPool.Put(t.rx)
			t.rx = nil
		}
		if err == syscall.EAGAIN {
			t.dry = true
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// nextFrame splits the first length-prefixed frame off b: it returns the
// frame's body, aliasing b, and the bytes the frame spans, or n == 0 when
// b does not yet hold a whole frame.
func nextFrame(b []byte) (body []byte, n int, err error) {
	if len(b) < 4 {
		return nil, 0, nil
	}
	fn := binary.LittleEndian.Uint32(b)
	if fn > maxNetFrame {
		return nil, 0, errFrameTooLarge
	}
	end := 4 + int(fn)
	if len(b) < end {
		return nil, 0, nil
	}
	return b[4:end], end, nil
}

// cut returns the first whole frame among the bytes the connection holds,
// copied into an arena buffer, or nil when there is none.
func (t *tcpReader) cut(ar *netArena) ([]byte, error) {
	if t.pend == nil {
		return nil, nil
	}
	body, n, err := nextFrame(t.pend[t.off:])
	if n == 0 {
		return nil, err
	}
	f := ar.get(len(body))
	copy(f, body)
	if t.off += n; t.off == len(t.pend) {
		ar.put(t.pend)
		t.pend, t.off = nil, 0
	}
	return f, nil
}

// hold appends b, bytes read but not yet returned as a frame, to what the
// connection holds, moving the held bytes into a larger arena buffer when
// they do not fit (doubling, so a large frame assembles in linear time).
func (t *tcpReader) hold(b []byte, ar *netArena) {
	if len(b) == 0 {
		return
	}
	held := t.pend[t.off:]
	if need := len(held) + len(b); need > cap(t.pend) {
		buf := ar.get(max(need, 2*cap(t.pend)))[:0]
		buf = append(buf, held...)
		if t.pend != nil {
			ar.put(t.pend)
		}
		t.pend = buf
	} else {
		t.pend = append(t.pend[:0], held...) // compact: the copy may overlap
	}
	t.pend = append(t.pend, b...)
	t.off = 0
}
