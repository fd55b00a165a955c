// Egress coalescing: per-connection small-write combining.
//
// One read burst can produce several outbound frames — the responses to
// pipelined requests — and writing each on its own costs one write per
// frame. The egress combiner stages them back-to-back in one buffer, each
// behind its 4-byte length prefix, and the whole run goes out in a single
// Conn.Write — N frames, one syscall, one packet train — when the
// connection has no further frame to read without waiting (drive) or when
// the staging buffer crosses its high-water mark. On a dialed peer every
// caller flushes after staging, and frames staged while another caller's
// write is in flight leave with the next one. The handshake and the
// shed-load rejection write their frames through it too, so the combiner
// is the only code that writes a length prefix.
// There is no timer: latency is bounded by the burst the frames were
// produced in, not a Nagle delay.
//
// Buffers come from framePool, a bounded global free list shared with
// ingress (the splitter copies each frame into a pooled buffer, and the
// serving end returns recyclable request frames to it) and the loopback
// pipe, so the warm request/response cycle circulates a fixed working set
// instead of allocating. A mutex'd slice beats sync.Pool here: Put of a []byte boxes
// the slice header onto the heap, which would put one allocation back on
// every recycle of the path this pool exists to flatten.
package kernel

import (
	"encoding/binary"
	"sync"
)

// bufPool is a bounded free list of frame buffers.
type bufPool struct {
	mu   sync.Mutex
	bufs [][]byte
}

// framePool is the global buffer free list: egress staging, outbound
// frame assembly, ingress frames and loopback pipes all share it.
var framePool bufPool

const (
	// framePoolMax bounds the pooled buffer count; framePoolMinCap is the
	// smallest buffer worth pooling (and the minimum allocation size, so a
	// small request's buffer is reusable by a larger one).
	framePoolMax    = 64
	framePoolMinCap = 512
)

// getFrameBuf returns a buffer of length n from the pool, allocating on a
// miss. It takes no buffer larger than twice the size asked (or twice
// framePoolMinCap): a small frame that took a large buffer and escaped
// with it would leave the next large request to allocate.
// //nexus:alloc-ok: the make runs only when the pool has no buffer of
// fitting capacity; the warm path is a free-list hit.
func getFrameBuf(n int) []byte {
	framePool.mu.Lock()
	for i := len(framePool.bufs) - 1; i >= 0; i-- {
		if c := cap(framePool.bufs[i]); c >= n && c <= 2*max(n, framePoolMinCap) {
			b := framePool.bufs[i]
			last := len(framePool.bufs) - 1
			framePool.bufs[i] = framePool.bufs[last]
			framePool.bufs[last] = nil
			framePool.bufs = framePool.bufs[:last]
			framePool.mu.Unlock()
			return b[:n]
		}
	}
	framePool.mu.Unlock()
	//nexus:coldpath
	if n < framePoolMinCap {
		return make([]byte, n, framePoolMinCap)
	}
	return make([]byte, n)
}

// growFrameBuf returns b with room for n more bytes. A buffer too small
// is replaced by a pooled one holding the same bytes and goes back to the
// pool itself, instead of being outgrown by append and dropped: a reply
// larger than the frame it lands in then allocates only while the pool
// holds no buffer that fits. b must be the caller's own, as an open egress
// frame is.
func growFrameBuf(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := getFrameBuf(len(b) + n)[:len(b)]
	copy(nb, b)
	putFrameBuf(b)
	return nb
}

// putFrameBuf recycles a buffer; out-of-bounds capacities and pool
// overflow are dropped for the GC.
func putFrameBuf(b []byte) {
	if cap(b) < framePoolMinCap || cap(b) > arenaKeepCap {
		return
	}
	framePool.mu.Lock()
	if len(framePool.bufs) < framePoolMax {
		framePool.bufs = append(framePool.bufs, b[:0])
	}
	framePool.mu.Unlock()
}

const (
	// egressHighWater triggers a flush mid-burst: staging beyond this buys
	// nothing (the kernel will segment anyway) and grows the buffer.
	egressHighWater = 16 << 10
	// egressKeepCap bounds the staging buffer retained across flushes;
	// egressParkCap bounds what an idle (waiting) connection may retain.
	egressKeepCap = 8 << 10
	egressParkCap = 2 << 10
)

// egress is one connection's small-write combiner. Confinement is the
// owner's concern: serverConn egress is confined to the connection's
// goroutine, Peer egress is guarded by sendMu.
type egress struct {
	c Conn

	// buf holds the staged length-prefixed frames; holeAt marks the open
	// frame's length prefix. spare is the double-buffer half so a flusher
	// can write one batch while the owner stages the next.
	buf    []byte
	holeAt int
	spare  []byte

	pend int // frames staged and not yet taken for writing

	m    *kernelMetrics
	mkey uint64
}

func newEgress(c Conn, m *kernelMetrics, mkey uint64) *egress {
	return &egress{c: c, m: m, mkey: mkey, holeAt: -1}
}

// begin opens a frame and returns the buffer to append its body into; the
// caller appends the frame type and fields, then seals with commit. The
// body lands directly behind its length prefix in the staging buffer — no
// per-frame buffer exists at all.
//
//nexus:noalloc
func (e *egress) begin() []byte {
	if e.buf == nil {
		e.buf = getFrameBuf(0)
	}
	e.holeAt = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	return e.buf
}

// size returns the body length of the frame begun by begin (b is the
// possibly-regrown buffer).
func (e *egress) size(b []byte) int { return len(b) - e.holeAt - 4 }

// commit seals the frame begun by begin (b is the possibly-regrown
// buffer) and returns its body length.
func (e *egress) commit(b []byte) int {
	n := e.size(b)
	binary.LittleEndian.PutUint32(b[e.holeAt:e.holeAt+4], uint32(n))
	e.buf = b
	e.holeAt = -1
	e.pend++
	return n
}

// abandon discards the frame begun by begin (b is the possibly-regrown
// buffer) without sealing it — the mid-encode and oversized-frame failure
// paths. Earlier staged frames survive; only the open one is dropped. A
// buffer that staged nothing else goes back to the pool, so an oversized
// frame's growth is not retained.
func (e *egress) abandon(b []byte) {
	if e.holeAt == 0 {
		putFrameBuf(b)
		e.buf = nil
	} else {
		e.buf = b[:e.holeAt]
	}
	e.holeAt = -1
}

// stage adds a fully built frame, copying it behind a length prefix and
// recycling it.
func (e *egress) stage(frame []byte) {
	b := e.begin()
	b = append(b, frame...)
	e.commit(b)
	putFrameBuf(frame)
}

// full reports that staging crossed its high-water mark and the owner
// should flush mid-burst.
func (e *egress) full() bool { return len(e.buf) >= egressHighWater }

// take removes the staged batch for writing, resetting staging to the
// spare half so the owner can keep appending while the batch is written.
// Requires the owner's confinement (lock or goroutine); the returned batch
// is then private to the flusher.
func (e *egress) take() (buf []byte, n int) {
	buf, n = e.buf, e.pend
	e.buf, e.spare = e.spare, nil
	e.pend = 0
	return buf, n
}

// write flushes one taken batch to the connection. No confinement
// required: the batch is the flusher's own.
func (e *egress) write(buf []byte, n int) error {
	if n == 0 {
		return nil
	}
	e.m.add(e.mkey, mNetEgressFlushes, 1)
	e.m.add(e.mkey, mNetEgressFrames, uint64(n))
	_, err := e.c.Write(buf)
	return err
}

// release returns a written batch's buffer to the spare slot (or the
// pool, above the retention bound). Requires the owner's confinement.
func (e *egress) release(buf []byte) {
	if buf != nil && e.spare == nil && cap(buf) <= egressKeepCap {
		e.spare = buf[:0]
	} else if buf != nil {
		putFrameBuf(buf)
	}
}

// flush drains staging in one step — the single-owner path (serverConn,
// and either end's handshake), where no concurrent stager exists between
// take and release.
func (e *egress) flush() error {
	if e.pend == 0 {
		return nil
	}
	buf, n := e.take()
	err := e.write(buf, n)
	e.release(buf)
	return err
}

// trim returns retained staging above keep to the pool: egressParkCap
// before the connection waits, so an idle connection pins at most that of
// scratch, and 0 after a handshake, whose frames leave no buffer behind.
func (e *egress) trim(keep int) {
	if e.buf != nil && len(e.buf) == 0 && cap(e.buf) > keep {
		putFrameBuf(e.buf)
		e.buf = nil
	}
	if e.spare != nil && cap(e.spare) > keep {
		putFrameBuf(e.spare)
		e.spare = nil
	}
}
