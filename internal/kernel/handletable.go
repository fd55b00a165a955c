package kernel

import (
	"sync"
	"sync/atomic"
)

// Cap is an opaque per-process capability handle: the only name user-level
// code holds for kernel objects. A handle packs a table slot in the low 32
// bits and a generation tag in the high 32; a forged or stale value fails
// the generation check and resolves to EBADF. Handles are meaningful only
// to the process (Session) they were issued to.
type Cap uint64

// CapSyscall is the pseudo-handle for the kernel system-call channel
// (conventionally port 0). Every process implicitly holds it; it can be
// interposed on but not called, closed, duplicated, or granted.
const CapSyscall Cap = 0

// capKind classifies what a handle-table slot refers to.
type capKind uint8

const (
	capFree   capKind = iota
	capPort           // owner handle: the port this session listens on
	capChan           // channel handle: a port this session may call
	capObj            // object handle: a named, goal-protected object
	capRemote         // remote channel handle: a service on a peer kernel,
	// represented by a local forwarder port so the standard dispatch
	// pipeline (and Submit batching) applies to cross-node calls
)

// hslot is one handle-table entry.
type hslot struct {
	gen  uint32
	kind capKind
	port *Port  // capPort / capChan / capRemote (forwarder)
	obj  string // capObj
	// capRemote: the connection and remote port behind the forwarder, so
	// batched submission can frame ops for the wire directly instead of
	// paying a per-op round-trip through the forwarder handler.
	peer  *Peer
	rport int
}

// handleTable is the per-process capability table. Its slots sit in
// chunks of htChunkLen that a directory, published through an atomic
// pointer, lists in slot order; every directory the table publishes
// shares the chunks before it, so a slot's latest store is seen through
// any of them. A resolve is one atomic load of the directory, one of the
// slot and the generation check, with no lock. Every write (alloc, close,
// drain) is a control-plane call — Listen, Open, OpenObject, Dup, Close,
// Exit — and runs under mu, so the warm Call path never waits on one:
// alloc and close each store one slot, and alloc adds a chunk to the
// directory once every htChunkLen new slots. A closed slot is reused,
// last closed first, under a new generation; generations grow with every
// alloc, so a stale handle fails the generation check instead of aliasing
// the slot's new object.
//
// Invariants (asserted by FuzzHandleTable and the registry stress test):
//   - a live slot's generation matches the Cap that named it at alloc time;
//   - after drain (process exit) the table is empty and permanently dead:
//     every later alloc fails and every lookup misses — no handle outlives
//     its process;
//   - dup'd handles resolve to the same referent until individually closed.
//
// Lock ordering: mu is a leaf; no code path holds it while taking any
// other kernel lock.
type handleTable struct {
	dir atomic.Pointer[[]*htChunk]

	mu   sync.Mutex // serializes writers; guards free, top, gen and dead
	free []uint32   // closed slots, reused last closed first
	top  uint32     // highest slot issued
	gen  uint32     // last generation issued
	dead bool       // drained: no further alloc

	// chanMu orders the pid-level channel grant Session.Open and Dup make
	// for a new slot against Session.Close's last-handle check and revoke:
	// a grant landing between that check and its revoke would leave a
	// live handle with no grant behind it.
	chanMu sync.Mutex
}

// htChunkLen is the number of slots in one chunk of a handle table.
const htChunkLen = 32

// htChunk is a run of handle-table slots; a nil slot is free.
type htChunk [htChunkLen]atomic.Pointer[hslot]

func (t *handleTable) init() {
	t.dir.Store(new([]*htChunk))
}

// capOf/capSlot/capGen pack and unpack handles. Slot 0 is never allocated,
// so CapSyscall (0) can never collide with an issued handle.
func capOf(slot, gen uint32) Cap { return Cap(uint64(slot) | uint64(gen)<<32) }

func capSlot(c Cap) uint32 { return uint32(c) }
func capGen(c Cap) uint32  { return uint32(c >> 32) }

// slot returns slot n of the published directory, or nil if the directory
// does not reach n.
func (t *handleTable) slot(n uint32) *atomic.Pointer[hslot] {
	dir := *t.dir.Load()
	i := n - 1 // slot 0 wraps past every directory
	if i/htChunkLen >= uint32(len(dir)) {
		return nil
	}
	return &dir[i/htChunkLen][i%htChunkLen]
}

// alloc inserts a slot and returns its handle; fails on a drained table.
func (t *handleTable) alloc(s hslot) (Cap, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return 0, false
	}
	var n uint32
	if k := len(t.free); k > 0 {
		n, t.free = t.free[k-1], t.free[:k-1]
	} else {
		t.top++
		n = t.top
		if dir := *t.dir.Load(); (n-1)/htChunkLen == uint32(len(dir)) {
			// append writes past every published directory's length, so
			// no reader indexes the element it stores.
			grown := append(dir, new(htChunk))
			t.dir.Store(&grown)
		}
	}
	t.gen++
	s.gen = t.gen
	t.slot(n).Store(&s)
	return capOf(n, s.gen), true
}

// lookup resolves a handle: two atomic loads and the generation check.
//
//nexus:noalloc
func (t *handleTable) lookup(c Cap) (hslot, bool) {
	if p := t.slot(capSlot(c)); p != nil {
		if s := p.Load(); s != nil && s.gen == capGen(c) {
			return *s, true
		}
	}
	return hslot{}, false
}

// close removes a handle, returning the slot it held.
func (t *handleTable) close(c Cap) (hslot, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.lookup(c)
	if !ok {
		return hslot{}, false
	}
	t.slot(capSlot(c)).Store(nil)
	t.free = append(t.free, capSlot(c))
	return s, true
}

// each calls f with every live slot number and its entry.
func (t *handleTable) each(f func(n uint32, s *hslot)) {
	for c, ch := range *t.dir.Load() {
		for i := range ch {
			if s := ch[i].Load(); s != nil {
				f(uint32(c*htChunkLen+i+1), s)
			}
		}
	}
}

// refsPort reports whether any live handle still references the port;
// close uses it to decide whether the pid-level channel grant may drop.
func (t *handleTable) refsPort(pt *Port) bool {
	refs := false
	t.each(func(_ uint32, s *hslot) { refs = refs || s.port == pt })
	return refs
}

// drain marks the table dead and empties it: the Exit teardown step for
// handles. Idempotent; a later alloc fails.
func (t *handleTable) drain() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dead = true
	for _, ch := range *t.dir.Load() {
		for i := range ch {
			ch[i].Store(nil)
		}
	}
	t.free = nil
}

// len counts live handles (introspection and tests).
func (t *handleTable) len() int {
	n := 0
	t.each(func(uint32, *hslot) { n++ })
	return n
}

// handleRegistry maps pid → handle table so process teardown can revoke a
// process's handles no matter which path triggered the exit. Sessions hold
// their table pointer directly — the warm path never touches the registry.
type handleRegistry struct {
	shards [16]hrShard
}

type hrShard struct {
	mu sync.Mutex
	m  map[int]*handleTable
}

func newHandleRegistry() *handleRegistry {
	r := &handleRegistry{}
	for i := range r.shards {
		r.shards[i].m = map[int]*handleTable{}
	}
	return r
}

func (r *handleRegistry) shard(pid int) *hrShard {
	return &r.shards[uint(pid)&15]
}

func (r *handleRegistry) insert(pid int, t *handleTable) {
	sh := r.shard(pid)
	sh.mu.Lock()
	sh.m[pid] = t
	sh.mu.Unlock()
}

// dropPID drains and unregisters pid's table, if any.
func (r *handleRegistry) dropPID(pid int) {
	sh := r.shard(pid)
	sh.mu.Lock()
	t := sh.m[pid]
	delete(sh.m, pid)
	sh.mu.Unlock()
	if t != nil {
		t.drain()
	}
}
