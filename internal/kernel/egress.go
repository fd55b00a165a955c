// Egress coalescing: per-connection small-write combining.
//
// One read burst can produce several outbound frames — pipelined
// responses, a credit grant — and writing each on its own costs one write
// per frame. The egress combiner stages them and flushes once, when the
// connection has no further frame to read without waiting (drive) or when
// the staging buffer crosses its high-water mark. On a dialed peer every
// caller flushes after staging, and frames staged while another caller's
// write is in flight leave with the next one.
// There is no timer: latency is bounded by the burst the frames were
// produced in, not a Nagle delay.
//
// Two modes, chosen by the connection's capabilities:
//
//   - contiguous (rawWriter conns, i.e. TCP): frames are staged
//     back-to-back in one buffer, each behind its 4-byte length prefix,
//     and the whole run goes out in a single write — N frames, one
//     syscall, one packet train;
//   - frame (loopback and any other Conn): frames are staged in pooled
//     buffers and handed to Conn.Send one by one at flush, preserving the
//     interface's per-frame ownership transfer.
//
// Buffers come from framePool, a bounded global free list shared with the
// ingress arenas (netArena overflows into it and refills from it), so the
// warm request/response cycle circulates a fixed working set instead of
// allocating. A mutex'd slice beats sync.Pool here: Put of a []byte boxes
// the slice header onto the heap, which would put one allocation back on
// every recycle of the path this pool exists to flatten.
package kernel

import (
	"encoding/binary"
	"sync"
)

// rawWriter is the optional Conn extension the combiner uses to write a
// run of already-length-prefixed frames in one syscall (tcpConn has it).
type rawWriter interface {
	SendRaw(p []byte) error
}

// bufPool is a bounded free list of frame buffers.
type bufPool struct {
	mu   sync.Mutex
	bufs [][]byte
}

// framePool is the global buffer free list: egress staging, outbound
// frame assembly, and ingress arena overflow all share it.
var framePool bufPool

const (
	// framePoolMax bounds the pooled buffer count; framePoolMinCap is the
	// smallest buffer worth pooling (and the minimum allocation size, so a
	// small request's buffer is reusable by a larger one).
	framePoolMax    = 64
	framePoolMinCap = 512
)

// getFrameBuf returns a buffer of length n from the pool, allocating on a
// miss. //nexus:alloc-ok: the make runs only when the pool has no buffer
// of sufficient capacity; the warm path is a free-list hit.
func getFrameBuf(n int) []byte {
	framePool.mu.Lock()
	for i := len(framePool.bufs) - 1; i >= 0; i-- {
		if cap(framePool.bufs[i]) >= n {
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
	// egressFrameHighWater is the frame-mode flush trigger.
	egressFrameHighWater = 64
)

// egress is one connection's small-write combiner. Confinement is the
// owner's concern: serverConn egress is confined to the connection's
// goroutine, Peer egress is guarded by sendMu.
type egress struct {
	c  Conn
	rw rawWriter // non-nil selects contiguous mode

	// Contiguous mode: staged length-prefixed frames; holeAt marks the
	// open frame's length prefix. spare is the double-buffer half so a
	// flusher can write one batch while the owner stages the next.
	buf    []byte
	holeAt int
	spare  []byte

	// Frame mode: staged whole frames (pooled buffers, ownership passes
	// to Conn.Send at flush). spareFrames is the double-buffer half.
	frames      [][]byte
	spareFrames [][]byte

	pend int // frames staged and not yet taken for writing

	m    *kernelMetrics
	mkey uint64
}

func newEgress(c Conn, m *kernelMetrics, mkey uint64) *egress {
	e := &egress{c: c, m: m, mkey: mkey, holeAt: -1}
	if rw, ok := c.(rawWriter); ok {
		e.rw = rw
	}
	return e
}

// begin opens a frame and returns the buffer to append its body into; the
// caller appends the frame type and fields, then seals with commit. In
// contiguous mode the body lands directly behind its length prefix in the
// staging buffer — no per-frame buffer exists at all.
//
//nexus:noalloc
func (e *egress) begin() []byte {
	if e.rw != nil {
		if e.buf == nil {
			e.buf = getFrameBuf(0)
		}
		e.holeAt = len(e.buf)
		e.buf = append(e.buf, 0, 0, 0, 0)
		return e.buf
	}
	return getFrameBuf(0)
}

// size returns the body length of the frame begun by begin (b is the
// possibly-regrown buffer).
func (e *egress) size(b []byte) int {
	if e.rw != nil {
		return len(b) - e.holeAt - 4
	}
	return len(b)
}

// commit seals the frame begun by begin (b is the possibly-regrown
// buffer) and returns its body length.
func (e *egress) commit(b []byte) int {
	n := e.size(b)
	if e.rw != nil {
		binary.LittleEndian.PutUint32(b[e.holeAt:e.holeAt+4], uint32(n))
		e.buf = b
		e.holeAt = -1
	} else {
		e.frames = append(e.frames, b)
	}
	e.pend++
	return n
}

// abandon discards the frame begun by begin (b is the possibly-regrown
// buffer) without sealing it — the mid-encode and oversized-frame failure
// paths. Earlier staged frames survive; only the open one is dropped. A
// buffer that staged nothing else goes back to the pool, so an oversized
// frame's growth is not retained.
func (e *egress) abandon(b []byte) {
	if e.rw != nil {
		if e.holeAt == 0 {
			putFrameBuf(b)
			e.buf = nil
		} else {
			e.buf = b[:e.holeAt]
		}
		e.holeAt = -1
	} else {
		putFrameBuf(b)
	}
}

// stage adds a fully built frame, taking ownership of it: contiguous mode
// copies it behind a length prefix and recycles it, frame mode queues it
// for Conn.Send (whose contract transfers ownership to the receiver).
func (e *egress) stage(frame []byte) {
	if e.rw != nil {
		if e.buf == nil {
			e.buf = getFrameBuf(0)
		}
		var pfx [4]byte
		binary.LittleEndian.PutUint32(pfx[:], uint32(len(frame)))
		e.buf = append(e.buf, pfx[:]...)
		e.buf = append(e.buf, frame...)
		putFrameBuf(frame)
	} else {
		e.frames = append(e.frames, frame)
	}
	e.pend++
}

// full reports that staging crossed its high-water mark and the owner
// should flush mid-burst.
func (e *egress) full() bool {
	return len(e.buf) >= egressHighWater || len(e.frames) >= egressFrameHighWater
}

// take removes the staged batch for writing, resetting staging to the
// spare half so the owner can keep appending while the batch is written.
// Requires the owner's confinement (lock or goroutine); the returned batch
// is then private to the flusher.
func (e *egress) take() (buf []byte, frames [][]byte, n int) {
	buf, frames, n = e.buf, e.frames, e.pend
	e.buf, e.spare = e.spare, nil
	if e.spareFrames != nil {
		e.frames = e.spareFrames[:0]
		e.spareFrames = nil
	} else {
		e.frames = nil
	}
	e.pend = 0
	return buf, frames, n
}

// write flushes one taken batch to the connection. No confinement
// required: the batch is the flusher's own.
func (e *egress) write(buf []byte, frames [][]byte, n int) error {
	if n == 0 {
		return nil
	}
	e.m.add(e.mkey, mNetEgressFlushes, 1)
	e.m.add(e.mkey, mNetEgressFrames, uint64(n))
	if e.rw != nil {
		return e.rw.SendRaw(buf)
	}
	var err error
	for i, f := range frames {
		if err == nil {
			err = e.c.Send(f)
		}
		frames[i] = nil
	}
	return err
}

// release returns a written batch's buffers to the spare slots (or the
// pool, above the retention bound). Requires the owner's confinement.
func (e *egress) release(buf []byte, frames [][]byte) {
	if buf != nil && e.spare == nil && cap(buf) <= egressKeepCap {
		e.spare = buf[:0]
	} else if buf != nil {
		putFrameBuf(buf)
	}
	if frames != nil && e.spareFrames == nil {
		e.spareFrames = frames[:0]
	}
}

// flush drains staging in one step — the single-owner (serverConn) path,
// where no concurrent stager exists between take and release.
func (e *egress) flush() error {
	if e.pend == 0 {
		return nil
	}
	buf, frames, n := e.take()
	err := e.write(buf, frames, n)
	e.release(buf, frames)
	return err
}

// trim releases oversized retained staging; called before the connection
// waits, so an idle connection pins at most egressParkCap of scratch.
func (e *egress) trim() {
	if e.buf != nil && len(e.buf) == 0 && cap(e.buf) > egressParkCap {
		putFrameBuf(e.buf)
		e.buf = nil
	}
	if e.spare != nil && cap(e.spare) > egressParkCap {
		putFrameBuf(e.spare)
		e.spare = nil
	}
}
