//go:build linux

// The raw TCP reader: the read of a TCP connection end's splitter on Linux.
//
// A pass reads the socket once, through the connection's RawConn.Read,
// into a pooled receive buffer and hands what it read to the splitter
// (driver.go), which keeps it until it makes whole frames. A reader that
// may not wait ends its pass at EAGAIN; one that may wait returns false
// from the read callback instead, which parks the goroutine in the runtime
// netpoller until the socket is readable. It gives its receive buffer back
// first, so a waiting connection holds no buffer, and closing the
// connection wakes it with an error.
package kernel

import (
	"io"
	"syscall"
)

// rawReader reads one TCP connection end's socket directly, confined to
// the end's goroutine.
type rawReader struct {
	raw  syscall.RawConn
	m    *kernelMetrics
	mkey uint64

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

// newRawReader binds a reader to c's socket, or returns nil when c is not
// a TCP connection end exposing one; its splitter then reads it through
// Read.
func newRawReader(c Conn, m *kernelMetrics, mkey uint64) *rawReader {
	tc, ok := c.(*tcpConn)
	if !ok {
		return nil
	}
	sc, ok := tc.c.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	r := &rawReader{raw: raw, m: m, mkey: mkey}
	r.readFn = r.read
	return r
}

// read is the RawConn.Read callback: one read(2) into the receive buffer.
// At EAGAIN a reader that may wait gives the buffer back and returns
// false, parking in the netpoller until the socket is readable; the
// runtime then calls read again.
func (r *rawReader) read(fd uintptr) bool {
	if r.rx == nil {
		r.rx = rxPool.Get().(*[rxSize]byte)
	}
	for {
		r.n, r.err = syscall.Read(int(fd), r.rx[:])
		if r.err != syscall.EINTR {
			break
		}
	}
	if r.err == syscall.EAGAIN && r.wait {
		rxPool.Put(r.rx)
		r.rx = nil
		r.parked = true
		return false
	}
	return true
}

// fill reads s's socket once and holds what it read; ok reports that it
// read bytes, and a pass that may not wait reads only a socket that is not
// dry.
func (s *splitter) fill(wait bool) (ok bool, err error) {
	r := s.raw
	if r.dry && !wait {
		return false, nil
	}
	r.wait, r.parked = wait, false
	err = r.raw.Read(r.readFn)
	if err == nil {
		if r.parked {
			r.m.add(r.mkey, mNetPollWakeups, 1)
		}
		err = r.err
	}
	if err == nil && r.n == 0 {
		err = io.EOF
	}
	if err == nil {
		r.dry = r.n < rxSize
		s.hold(r.rx[:r.n])
	}
	if r.rx != nil {
		rxPool.Put(r.rx)
		r.rx = nil
	}
	if err == syscall.EAGAIN {
		r.dry = true
		return false, nil
	}
	if err != nil {
		return false, tcpErr("recv", err) //nexus:coldpath — the read failed; the end is closing
	}
	return true, nil
}
