// Event-driven transport runtime: the connection scheduler.
//
// Connections are multiplexed over a sharded scheduler rather than given a
// goroutine each, so that 100k idle connections do not cost 100k goroutine
// stacks: a bounded worker pool (TransportConfig.Workers) where each
// worker owns one shard — a run queue of ready connections plus a pooled
// ingress arena. An idle connection costs a file descriptor and a few
// hundred bytes of state, not a stack.
//
// The per-connection state machine (csIdle/csQueued/csRunning/
// csRunningDirty) guarantees that at most one worker processes a given
// connection at a time, so the per-connection ingress state (wire decoder,
// proxy table, credit counters) is plain-field, lock-free state owned by
// whichever worker holds the connection in csRunning.
// notify() is lost-wakeup-safe: a notification landing while the
// connection runs flips it to csRunningDirty, and the worker re-queues it
// instead of parking it.
//
// Polling is wakeup-free on Linux: each shard owns an epoll instance
// (netpoll_linux.go), and when a worker's run queue empties while sockets
// are registered it parks on its own shard's descriptor — a goroutine park
// through the runtime netpoller, so socket readiness resumes the worker
// directly with no poller-thread handoff and no P pinned in a blocking
// syscall. A shard with no registered sockets parks on its condvar
// instead, keeping loopback handoffs at goroutine-switch cost. Cross-
// thread notify() on an epoll-parked shard (loopback sends, shim sources,
// teardown kicks) writes the shard's eventfd. Frame delivery is pulled through the
// frameSource interface: loopback conns implement it natively, TCP conns
// on Linux are epoll-driven, and any other Conn implementation falls back
// to a shim goroutine — the one place a connection holds a goroutine, for
// transports the runtime cannot poll.
package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Test knobs (set before nodes are built, reset after): debugForceShim
// routes every connection through the shim source, debugNoShardPoller
// builds schedulers without epoll shards (cond-parked workers), so the
// portable fallback paths run under the full transport suite on Linux CI.
var (
	debugForceShim     bool
	debugNoShardPoller bool
)

// TransportConfig sizes a Node's event-driven transport runtime. The zero
// value selects every default; NewNode uses it.
type TransportConfig struct {
	// Workers is the ingress worker-pool size: the number of scheduler
	// shards that process frames from accepted connections. Defaults to
	// GOMAXPROCS, with a floor of 2. Handlers run on these workers, so a
	// handler that blocks (or issues a synchronous nested remote call)
	// occupies one worker for its duration.
	Workers int
	// MaxInflight bounds the pipelined request window per dialed peer: at
	// most this many requests may be outstanding before begin() fails with
	// EAGAIN. Defaults to DefaultMaxInflight (128).
	MaxInflight int
	// RecvWindow is the credit-based receive window this node advertises
	// per connection in the handshake: the peer may have at most this many
	// unacknowledged frames toward us before it must stall. Defaults to
	// DefaultRecvWindow (128); clamped to maxRecvWindow so in-window
	// loopback traffic can never block a scheduler worker.
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

// maxRecvWindow caps the advertised receive window: in-credit traffic
// (window frames plus a few interleaved credit grants) must stay small
// enough that a scheduler worker staging it through the egress combiner
// never holds an unbounded queue.
const maxRecvWindow = 192

// withDefaults resolves the zero fields.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers < 2 {
		// Two is the floor: a handler making a nested remote call occupies
		// a worker while it waits, and a single-worker pool would have no
		// capacity left to make progress for other connections.
		c.Workers = 2
	}
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

// demuxWorkers sizes the response-demultiplexer pool from the ingress pool.
// Dialed peers live in their own (smaller) pool because response delivery
// must stay independent of the ingress workers: a handler running on an
// ingress worker that makes a nested remote call waits for a response, and
// if that response could only be delivered by the same exhausted pool the
// node would deadlock against itself.
func demuxWorkers(workers int) int {
	w := workers / 2
	if w < 1 {
		w = 1
	}
	return w
}

// frameSource is the pull side of one connection's ingress: the scheduler
// asks it for complete frames without blocking. start wires the source to
// its scheduling handle (whose notify is invoked whenever a frame — or a
// connection failure — may be observable through tryRecv); tryRecv returns
// (nil, nil) when nothing is available right now; drained re-arms
// readiness after an empty tryRecv (needed by one-shot epoll
// registration); stop releases any resources (poller registration, shim
// goroutine) at teardown.
type frameSource interface {
	start(sc *schedConn) error
	tryRecv(ar *netArena) ([]byte, error)
	drained()
	stop()
}

// netArena is a per-shard free list of frame buffers. Exactly one worker
// owns each shard, so the arena needs no lock: frame reads land in pooled
// buffers, are decoded in place, and are recycled after dispatch for frame
// types whose payload cannot outlive the exchange (see recyclableFrame).
// It overflows into (and refills from) the global framePool, coupling the
// ingress recycle stream to the egress combiner's buffer demand.
type netArena struct {
	bufs [][]byte
}

// arenaMaxBufs bounds the free list per shard; arenaKeepCap (shared with
// the submission arenas in batch.go) bounds each buffer so one huge frame
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

// Connection scheduling states.
const (
	csIdle int32 = iota // parked; a notify queues it
	csQueued
	csRunning
	csRunningDirty // notified while running; the worker re-queues it
	csDead
)

// schedQuantum bounds consecutive frames one connection processes before
// the worker re-queues it, so one busy connection cannot starve its
// shard-mates.
const schedQuantum = 32

// schedConn is one connection's scheduling handle.
type schedConn struct {
	src     frameSource
	onFrame func(frame []byte, ar *netArena) bool // false = tear down
	onFlush func() bool                           // egress flush at quantum end; false = tear down
	onPark  func()                                // trim pooled scratch before csIdle
	onClose func()                                // runs exactly once, on the owning worker
	shard   *schedShard
	m       *kernelMetrics
	state   atomic.Int32
}

// notify marks the connection ready. Safe from any goroutine; lost-wakeup
// free against the worker's own transitions.
func (sc *schedConn) notify() {
	for {
		switch sc.state.Load() {
		case csIdle:
			if sc.state.CompareAndSwap(csIdle, csQueued) {
				sc.shard.push(sc)
				return
			}
		case csRunning:
			if sc.state.CompareAndSwap(csRunning, csRunningDirty) {
				return
			}
		default: // queued, dirty, dead: nothing to do
			return
		}
	}
}

// die transitions to the terminal state and runs teardown. Only the owning
// worker calls it, so it runs at most once.
func (sc *schedConn) die() {
	sc.state.Store(csDead)
	sc.src.stop()
	sc.onClose()
}

// flush drains the connection's egress combiner, if it has one.
func (sc *schedConn) flush() bool {
	if sc.onFlush == nil {
		return true
	}
	return sc.onFlush()
}

// run processes up to schedQuantum frames, then either parks the
// connection (re-arming its readiness) or re-queues it. The egress
// combiner is flushed before every state transition out of csRunning, so
// staged responses are confined to exactly one worker's quantum and a
// racing notify can never interleave a second worker with unflushed
// egress.
func (sc *schedConn) run(s *schedShard) {
	if !sc.state.CompareAndSwap(csQueued, csRunning) {
		return // torn down while queued
	}
	for i := 0; i < schedQuantum; i++ {
		frame, err := sc.src.tryRecv(&s.arena)
		if err != nil {
			// Push out whatever was staged (an orderly shutdown may still
			// deliver responses in flight); the connection is done either way.
			sc.flush()
			sc.die()
			return
		}
		if frame == nil {
			// Source empty: flush, trim, park, then re-arm. Flushing before
			// the idle transition keeps the combiner worker-confined;
			// re-arming after it means a readiness event racing the park
			// finds csIdle and queues the connection instead of being lost.
			if !sc.flush() {
				sc.die()
				return
			}
			if sc.onPark != nil {
				sc.onPark()
			}
			if sc.state.CompareAndSwap(csRunning, csIdle) {
				sc.src.drained()
				return
			}
			break // dirty: more arrived while running
		}
		if !sc.onFrame(frame, &s.arena) {
			// Flush so the final (error/poison) response reaches the peer
			// before the connection closes under it.
			sc.flush()
			sc.die()
			return
		}
	}
	// Quantum exhausted or dirtied: flush and go to the back of the queue.
	if !sc.flush() {
		sc.die()
		return
	}
	sc.state.Store(csQueued)
	s.push(sc)
}

// schedShard is one worker's run queue plus its ingress arena and, on
// Linux, its epoll poller. When the queue empties the owning worker blocks
// in EpollWait if the shard has registered sockets — socket readiness
// resumes it with no intermediate thread — and on the condvar otherwise;
// parked tracks the EpollWait state so cross-thread pushes know to write
// the eventfd rather than signal the cond.
type schedShard struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []*schedConn
	head   int
	closed bool
	// parked is true while the worker is parked on the shard's poller with
	// an empty queue (cond-parked workers never set it). push clears it and
	// kicks the eventfd — exactly one kicker per park, so spurious eventfd
	// traffic stays bounded.
	parked bool

	// ep is the shard's poller; nil when the platform has none (or
	// debugNoShardPoller), in which case the worker parks on cond. Its
	// registration table is guarded by mu; its event buffers are confined
	// to the owning worker.
	ep *shardPoller

	idx uint64 // metrics stripe key for shard-level counters
	m   *kernelMetrics

	// arena is confined to the shard's worker goroutine.
	arena netArena
}

func (s *schedShard) push(sc *schedConn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.q = append(s.q, sc)
	depth := len(s.q) - s.head
	wake := s.parked
	s.parked = false
	s.mu.Unlock()
	sc.m.netQueued.Add(1)
	sc.m.netQueueLen.observeCount(uint64(depth))
	if wake {
		s.ep.kick()
	} else {
		s.cond.Signal()
	}
}

// pop blocks for the next ready connection; nil means the shard closed.
// While the shard has registered sockets, the worker parks in EpollWait
// itself — readiness events queue connections directly on this shard with
// no handoff — and a nonblocking poll runs before each dequeue, so one
// busy connection's re-queues cannot starve a shard-mate whose one-shot
// readiness event is already pending. With no sockets registered (a
// loopback-only shard, or no poller at all) the worker parks on the
// condvar instead: a cond wake is a goroutine handoff the Go scheduler can
// service on the same thread, where waking an EpollWait-parked worker
// costs an eventfd write plus an OS thread wakeup — a ~40x round-trip
// penalty for loopback traffic that never involves a descriptor.
func (s *schedShard) pop() *schedConn {
	for {
		s.mu.Lock()
		for s.head == len(s.q) && !s.closed && (s.ep == nil || s.ep.nfds == 0) {
			s.cond.Wait()
		}
		if s.head < len(s.q) {
			sc := s.q[s.head]
			s.q[s.head] = nil
			s.head++
			if s.head == len(s.q) {
				s.q = s.q[:0]
				s.head = 0
			}
			poll := s.ep != nil && s.ep.nfds > 0
			s.mu.Unlock()
			if poll {
				s.pollEvents(false)
			}
			return sc
		}
		if s.closed {
			s.mu.Unlock()
			return nil
		}
		// Queue empty on a polling shard: park the worker in EpollWait.
		s.parked = true
		s.mu.Unlock()
		s.pollEvents(true)
	}
}

// connSched is a sharded worker pool: one worker goroutine per shard,
// connections assigned round-robin at registration. The pool size is fixed
// at construction — the runtime's goroutine footprint is O(workers),
// independent of the connection count.
type connSched struct {
	m      *kernelMetrics
	shards []*schedShard
	// polling reports that every shard owns an epoll poller (all-or-
	// nothing, so a connection can be registered on any shard).
	polling bool
	next    atomic.Uint64
	wg      sync.WaitGroup
}

func newConnSched(workers int, m *kernelMetrics) *connSched {
	cs := &connSched{m: m, shards: make([]*schedShard, workers)}
	pollers := make([]*shardPoller, workers)
	if !debugNoShardPoller {
		ok := true
		for i := range pollers {
			p, err := newShardPoller()
			if err != nil || p == nil {
				ok = false
				break
			}
			pollers[i] = p
		}
		if ok {
			cs.polling = true
		} else {
			for _, p := range pollers {
				if p != nil {
					p.close()
				}
			}
			pollers = make([]*shardPoller, workers)
		}
	}
	for i := range cs.shards {
		s := &schedShard{ep: pollers[i], idx: uint64(i), m: m}
		s.cond = sync.NewCond(&s.mu)
		cs.shards[i] = s
		cs.wg.Add(1)
		go cs.worker(s)
	}
	return cs
}

func (cs *connSched) worker(s *schedShard) {
	defer cs.wg.Done()
	for {
		sc := s.pop()
		if sc == nil {
			return
		}
		cs.m.netQueued.Add(-1)
		sc.run(s)
	}
}

// register adds a connection to the scheduler and kicks it once — frames
// that arrived before the source was wired are picked up by that initial
// pass. onFlush (may be nil) drains the connection's egress combiner
// whenever the worker leaves csRunning; onPark (may be nil) releases
// pooled scratch as the connection parks to csIdle.
func (cs *connSched) register(src frameSource, onFrame func([]byte, *netArena) bool, onFlush func() bool, onPark, onClose func()) (*schedConn, error) {
	shard := cs.shards[cs.next.Add(1)%uint64(len(cs.shards))]
	sc := &schedConn{src: src, onFrame: onFrame, onFlush: onFlush, onPark: onPark, onClose: onClose, shard: shard, m: cs.m}
	if err := src.start(sc); err != nil {
		return nil, err
	}
	sc.notify()
	return sc, nil
}

// close stops the workers and releases the shard pollers. The caller must
// have torn down every registered connection first (Node.Close waits for
// all teardowns before calling it).
func (cs *connSched) close() {
	for _, s := range cs.shards {
		s.mu.Lock()
		s.closed = true
		wake := s.parked
		s.parked = false
		s.mu.Unlock()
		s.cond.Broadcast()
		if wake {
			s.ep.kick()
		}
	}
	cs.wg.Wait()
	for _, s := range cs.shards {
		if s.ep != nil {
			s.ep.close()
		}
	}
}

// shimSource adapts any Conn implementation the runtime cannot poll (a
// third-party transport, TCP on platforms without the epoll poller): one
// parked goroutine pulls frames with blocking Recv into a 1-deep inbox.
// This preserves the public Transport/Conn contract at the cost of the
// per-connection goroutine the native sources avoid.
type shimSource struct {
	c     Conn
	inbox chan []byte
	done  chan struct{}
	once  sync.Once

	failed atomic.Bool
	err    error // written before failed.Store, read after failed.Load
}

func newShimSource(c Conn) *shimSource {
	return &shimSource{c: c, inbox: make(chan []byte, 1), done: make(chan struct{})}
}

func (s *shimSource) start(sc *schedConn) error {
	go func() {
		for {
			f, err := s.c.Recv()
			if err != nil {
				s.err = err
				s.failed.Store(true)
				sc.notify()
				return
			}
			select {
			case s.inbox <- f:
			case <-s.done:
				return
			}
			sc.notify()
		}
	}()
	return nil
}

func (s *shimSource) tryRecv(*netArena) ([]byte, error) {
	select {
	case f := <-s.inbox:
		return f, nil
	default:
	}
	if s.failed.Load() {
		// Drain a frame that raced the failure flag before reporting it.
		select {
		case f := <-s.inbox:
			return f, nil
		default:
		}
		return nil, s.err
	}
	return nil, nil
}

func (s *shimSource) drained() {}

func (s *shimSource) stop() { s.once.Do(func() { close(s.done) }) }

// newFrameSource selects the ingress driver for a connection: loopback
// conns are native sources, TCP conns use the per-shard pollers when the
// target scheduler has them, and anything else gets the shim.
func (n *Node) newFrameSource(c Conn, cs *connSched) frameSource {
	if debugForceShim {
		return newShimSource(c)
	}
	if fs, ok := c.(frameSource); ok {
		return fs
	}
	if tc, ok := c.(*tcpConn); ok && cs.polling {
		if src, err := newTCPSource(tc); err == nil {
			return src
		}
	}
	return newShimSource(c)
}
