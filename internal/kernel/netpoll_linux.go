//go:build linux

// Per-shard epoll backend of the event-driven transport runtime: the
// native frame source for TCP connections on Linux.
//
// There is no poller thread. Each scheduler shard owns an epoll instance,
// and when the shard's run queue empties its worker parks on that instance
// (schedShard.pop) — socket readiness resumes the worker directly and the
// woken worker immediately runs the ready connection, where the old
// shared-poller design paid a poller→worker thread handoff (a context
// switch each way) per wakeup. The park itself is a goroutine park, not a
// blocked thread: the epoll descriptor is handed to the Go runtime's
// netpoller (an epoll fd is readable exactly when its interest set has
// pending events, and the runtime polls any epoll descriptor on Linux),
// and the worker sleeps in RawRead until it is. Parking a raw EpollWait
// thread instead would pin the worker's P in _Psyscall until sysmon
// retakes it — tens of microseconds per wakeup on a small GOMAXPROCS,
// paid on every hop of a lockstep round trip; the netpoller-integrated
// park releases the P immediately and the wake is an ordinary goroutine
// switch. Sockets are registered one-shot (EPOLLONESHOT) and re-armed by
// drained() after the worker empties them; cross-thread notify() on a
// parked shard writes the shard's eventfd, which lives in the same epoll
// set.
//
// Ownership: the epoll fd and eventfd belong to the shard (closed by
// connSched.close after its worker exits); the fd→source registration
// table is guarded by schedShard.mu; the event, ready and receive buffers
// are confined to the owning worker. Ingress is one nonblocking read per
// pass into the worker's receive buffer, split into frames in user space;
// bytes that do not yet make a whole frame stay with the connection only
// until they are consumed. Every epoll_ctl on a socket runs inside the
// connection's RawConn.Control, so a descriptor number is used only while
// this connection still holds the descriptor: a closed connection's number
// may already name someone else's socket.
package kernel

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"sync/atomic"
	"syscall"
)

// tcpPollEvents is the one-shot registration: input readiness plus
// peer-close, re-armed by drained() after the worker empties the socket.
const tcpPollEvents = uint32(syscall.EPOLLIN|syscall.EPOLLRDHUP) | uint32(syscall.EPOLLONESHOT)

// rxSize is the per-shard receive buffer: one read takes up to this much
// of a socket's queue, which covers a full egress flush (egressHighWater)
// from the peer.
const rxSize = 16 << 10

var errNoRawConn = errors.New("kernel: connection exposes no raw descriptor")

// eventfd flags (not exported by the syscall package).
const (
	efdNonblock = 0x800
	efdCloexec  = 0x80000
)

// shardPoller is one shard's epoll instance: the descriptors, the
// registration table, and the worker-confined scratch.
type shardPoller struct {
	epfd int
	efd  int // eventfd: cross-thread wakeup for a parked worker

	// ef wraps epfd so the worker can park on it through the runtime
	// netpoller; rc is its raw-access handle.
	ef *os.File
	rc syscall.RawConn

	// conns, nfds and gen are guarded by the owning schedShard's mu. gen
	// numbers registrations: each carries its own in the epoll data, so an
	// event that was in flight when its socket closed cannot be taken for
	// the newer connection that reused the descriptor number.
	conns map[int]*tcpSource
	nfds  int
	gen   int32

	// events, ready, rx and the park callback with its result are
	// confined to the shard's worker goroutine; the callback is bound on
	// the first park so later parks pass it without allocating.
	events [64]syscall.EpollEvent
	ready  []*tcpSource
	rx     [rxSize]byte
	park   func(uintptr) bool
	found  bool
}

func newShardPoller() (*shardPoller, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, err
	}
	efd, _, errno := syscall.Syscall(syscall.SYS_EVENTFD2, 0, efdNonblock|efdCloexec, 0)
	if errno != 0 {
		syscall.Close(epfd)
		return nil, errno
	}
	p := &shardPoller{epfd: epfd, efd: int(efd), conns: map[int]*tcpSource{}}
	ev := syscall.EpollEvent{Events: uint32(syscall.EPOLLIN), Fd: int32(p.efd)}
	if err := syscall.EpollCtl(epfd, syscall.EPOLL_CTL_ADD, p.efd, &ev); err != nil {
		syscall.Close(epfd)
		syscall.Close(p.efd)
		return nil, err
	}
	// Hand the epoll descriptor itself to the runtime netpoller: O_NONBLOCK
	// makes os.NewFile register it, and from then on a parked worker is a
	// parked goroutine (RawRead), not a thread holding its P hostage in a
	// blocking EpollWait.
	syscall.SetNonblock(epfd, true)
	p.ef = os.NewFile(uintptr(epfd), "shard-epoll")
	if p.rc, err = p.ef.SyscallConn(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// kick resumes a worker parked on the shard's epoll set. The eventfd add
// is cheap, async-safe, and coalesces: concurrent kicks cost one wakeup.
func (p *shardPoller) kick() {
	var one [8]byte
	binary.NativeEndian.PutUint64(one[:], 1)
	for {
		_, err := syscall.Write(p.efd, one[:])
		if err != syscall.EINTR {
			return
		}
	}
}

// close releases the descriptors. Only called after the shard's worker has
// exited and every source is deregistered.
func (p *shardPoller) close() {
	p.ef.Close() // closes epfd and deregisters it from the netpoller
	syscall.Close(p.efd)
}

// pollEvents collects readiness from the shard's poller — blocking (the
// worker parks until readiness or a kick) or nonblocking (the pre-dequeue
// starvation guard in pop). The blocking park is a goroutine park: RawRead
// sleeps in the runtime netpoller until the epoll set has events, then
// pollOnce dispatches them. The worker parks only after a pollOnce pass
// found the set empty, so the netpoller's edge-triggered registration of
// the epfd cannot miss a pending event.
func (s *schedShard) pollEvents(block bool) {
	if !block {
		s.pollOnce()
		return
	}
	ep := s.ep
	if ep.park == nil {
		ep.park = func(uintptr) bool {
			ep.found = s.pollOnce()
			return ep.found
		}
	}
	ep.found = false
	if err := ep.rc.Read(ep.park); err != nil || !ep.found {
		// The file is closing at teardown (or the poll failed): un-park and
		// let the pop loop observe the shard's closed flag.
		s.mu.Lock()
		s.parked = false
		s.mu.Unlock()
		return
	}
	s.m.add(s.idx, mNetPollWakeups, 1)
}

// pollOnce runs one nonblocking EpollWait pass and dispatches what it
// finds, reporting whether anything (socket readiness or an eventfd kick)
// was there. Ready sources are collected under mu (the registration
// table's lock) and notified after it is released, because notify()
// re-enters the shard through push.
func (s *schedShard) pollOnce() bool {
	ep := s.ep
	n, err := syscall.EpollWait(ep.epfd, ep.events[:], 0)
	if err != nil {
		// EINTR or a dying epfd: report found so the caller re-checks the
		// queue and closed flag instead of parking on a set it cannot read.
		s.mu.Lock()
		s.parked = false
		s.mu.Unlock()
		return true
	}
	if n == 0 {
		return false
	}
	s.mu.Lock()
	s.parked = false
	ready := ep.ready[:0]
	kicked := false
	for i := 0; i < n; i++ {
		ev := &ep.events[i]
		fd := int(ev.Fd)
		if fd == ep.efd {
			kicked = true
			continue
		}
		ts := ep.conns[fd]
		if ts == nil || ts.gen != ev.Pad {
			continue // deregistered, or the number reused, while the event was in flight
		}
		if ev.Events&uint32(syscall.EPOLLERR|syscall.EPOLLHUP|syscall.EPOLLRDHUP) != 0 {
			ts.hup.Store(true)
		}
		ready = append(ready, ts)
	}
	s.mu.Unlock()
	if kicked {
		// Drain the counter so a level-triggered eventfd does not re-fire.
		var buf [8]byte
		syscall.Read(ep.efd, buf[:])
	}
	for i, ts := range ready {
		ts.sc.notify()
		ready[i] = nil
	}
	ep.ready = ready[:0]
	return true
}

// newTCPSource extracts the raw descriptor and binds the read and
// epoll_ctl callbacks once, so the warm path passes them without
// allocating; registration with a shard's poller happens in start, once
// the scheduler has picked the shard.
func newTCPSource(tc *tcpConn) (frameSource, error) {
	sysc, ok := tc.c.(syscall.Conn)
	if !ok {
		return nil, errNoRawConn
	}
	raw, err := sysc.SyscallConn()
	if err != nil {
		return nil, err
	}
	fd := -1
	if err := raw.Control(func(f uintptr) { fd = int(f) }); err != nil {
		return nil, err
	}
	t := &tcpSource{tc: tc, raw: raw, fd: fd}
	t.readFn = func(fd uintptr) bool {
		for {
			t.rn, t.rerr = syscall.Read(int(fd), t.rdst)
			if t.rerr != syscall.EINTR {
				return true // never wait: a pass ends at EAGAIN
			}
		}
	}
	t.ctlFn = func(fd uintptr) {
		ev := syscall.EpollEvent{Events: tcpPollEvents, Fd: int32(fd), Pad: t.gen}
		t.ctlErr = syscall.EpollCtl(t.sc.shard.ep.epfd, t.ctlOp, int(fd), &ev)
	}
	return t, nil
}

// tcpSource is one TCP connection's pull-side ingress. Everything but hup
// is confined to the scheduler worker that owns the connection (start runs
// before the connection's first notify); hup may be written by any worker
// observing readiness.
type tcpSource struct {
	tc  *tcpConn
	raw syscall.RawConn
	fd  int
	gen int32 // registration number on the shard, set by start
	sc  *schedConn
	hup atomic.Bool

	// pend holds bytes read but not yet returned as a frame, from pend[off];
	// nil when none, so an idle connection holds no receive buffer.
	pend []byte
	off  int
	// dry reports that this pass's last read drained the socket; data that
	// arrives later is reported by the re-arm in drained(), which clears it.
	dry bool

	// Bound callbacks and their arguments and results.
	readFn func(uintptr) bool
	rdst   []byte
	rn     int
	rerr   error
	ctlFn  func(uintptr)
	ctlOp  int
	ctlErr error
}

// epollCtl applies op to this connection's registration on its shard's
// epoll set, inside RawConn.Control: the descriptor cannot be closed (and
// its number reused) while the call runs, and a closed connection gets an
// error instead of touching whoever holds the number now.
func (t *tcpSource) epollCtl(op int) error {
	t.ctlOp = op
	if err := t.raw.Control(t.ctlFn); err != nil {
		return err
	}
	return t.ctlErr
}

func (t *tcpSource) start(sc *schedConn) error {
	t.sc = sc
	s := sc.shard
	s.mu.Lock()
	if s.closed || s.ep == nil {
		s.mu.Unlock()
		return ErrTransportClosed
	}
	s.ep.conns[t.fd] = t
	s.ep.nfds++
	s.ep.gen++
	t.gen = s.ep.gen
	s.mu.Unlock()
	if err := t.epollCtl(syscall.EPOLL_CTL_ADD); err != nil {
		t.unregister()
		return err
	}
	return nil
}

// unregister removes the source from its shard's table. A later
// connection that reused the descriptor number may own the table slot by
// now; it keeps it.
func (t *tcpSource) unregister() {
	s := t.sc.shard
	s.mu.Lock()
	if s.ep.conns[t.fd] == t {
		delete(s.ep.conns, t.fd)
	}
	s.ep.nfds--
	s.mu.Unlock()
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

// tryRecv returns the next whole frame, copied into an arena buffer. A pass
// reads the socket once into the worker's receive buffer whenever the
// connection holds no whole frame, keeps what it read with the connection,
// and ends at EAGAIN or a short read.
//
//nexus:noalloc
func (t *tcpSource) tryRecv(ar *netArena) ([]byte, error) {
	for {
		if f, err := t.cut(ar); f != nil || err != nil {
			return f, err
		}
		hup := t.hup.Load()
		if t.dry && !hup {
			return nil, nil
		}
		rx := t.sc.shard.ep.rx[:]
		t.rdst = rx
		err := t.raw.Read(t.readFn)
		t.rdst = nil
		if err == nil {
			err = t.rerr
		}
		switch {
		case err == syscall.EAGAIN:
			if hup {
				// Readiness reported close or error and the socket is
				// drained: the stream is over.
				return nil, io.EOF
			}
			t.dry = true
			return nil, nil
		case err != nil:
			return nil, err
		case t.rn == 0:
			return nil, io.EOF
		}
		t.dry = t.rn < len(rx)
		t.hold(rx[:t.rn], ar)
	}
}

// cut returns the first whole frame among the bytes the connection holds,
// copied into an arena buffer, or nil when there is none.
func (t *tcpSource) cut(ar *netArena) ([]byte, error) {
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
func (t *tcpSource) hold(b []byte, ar *netArena) {
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

// drained re-arms the one-shot registration after the worker emptied the
// socket; the re-arm reports data that arrived after the last read.
func (t *tcpSource) drained() {
	t.dry = false
	if err := t.epollCtl(syscall.EPOLL_CTL_MOD); err != nil {
		// Re-arm failed (connection closed, shard closing): force the
		// worker back in so it observes the failure instead of sleeping
		// forever.
		t.hup.Store(true)
		t.sc.notify()
	}
}

// stop deregisters the connection. A socket already closed has left the
// epoll set with its last descriptor, so the failed Control skips the DEL.
func (t *tcpSource) stop() {
	t.epollCtl(syscall.EPOLL_CTL_DEL)
	t.unregister()
	t.pend, t.off = nil, 0
}
