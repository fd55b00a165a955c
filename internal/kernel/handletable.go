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

// handleTable is the per-process capability table: sharded like the port
// registry so the warm resolve path costs one shard read-lock, with an
// atomic slot allocator (slots are never reused — a closed slot simply
// leaves its shard map, so stale handles cannot alias new objects even
// before the generation check).
//
// Invariants (asserted by FuzzHandleTable and the registry stress test):
//   - a live slot's generation matches the Cap that named it at alloc time;
//   - after drain (process exit) the table is empty and permanently dead:
//     every later alloc fails and every lookup misses — no handle outlives
//     its process;
//   - dup'd handles resolve to the same referent until individually closed.
//
// Lock ordering: handle shard mutexes are leaves; no code path holds one
// while taking any other kernel lock.
type handleTable struct {
	dead   atomic.Bool
	next   atomic.Uint32
	gen    atomic.Uint32
	shards [htShards]htShard

	// chanMu orders the pid-level channel grant Session.Open and Dup make
	// for a new slot against Session.Close's last-handle check and revoke:
	// a grant landing between that check and its revoke would leave a
	// live handle with no grant behind it.
	chanMu sync.Mutex
}

const htShards = 8

type htShard struct {
	mu sync.RWMutex
	m  map[uint32]hslot
}

func (t *handleTable) init() {
	for i := range t.shards {
		t.shards[i].m = map[uint32]hslot{}
	}
}

func (t *handleTable) shard(slot uint32) *htShard {
	return &t.shards[slot&(htShards-1)]
}

// capOf/capSlot/capGen pack and unpack handles. Slot 0 is never allocated,
// so CapSyscall (0) can never collide with an issued handle.
func capOf(slot, gen uint32) Cap { return Cap(uint64(slot) | uint64(gen)<<32) }

func capSlot(c Cap) uint32 { return uint32(c) }
func capGen(c Cap) uint32  { return uint32(c >> 32) }

// alloc inserts a slot and returns its handle; fails on a drained table.
func (t *handleTable) alloc(s hslot) (Cap, bool) {
	if t.dead.Load() {
		return 0, false
	}
	slot := t.next.Add(1)
	s.gen = t.gen.Add(1)
	sh := t.shard(slot)
	sh.mu.Lock()
	sh.m[slot] = s
	sh.mu.Unlock()
	// Unwind an alloc that raced drain: whichever entries drain's sweep
	// missed are removed here, keeping "no handle outlives its process".
	if t.dead.Load() {
		sh.mu.Lock()
		delete(sh.m, slot)
		sh.mu.Unlock()
		return 0, false
	}
	return capOf(slot, s.gen), true
}

// lookup resolves a handle: one shard read-lock plus the generation check.
func (t *handleTable) lookup(c Cap) (hslot, bool) {
	slot := capSlot(c)
	if slot == 0 {
		return hslot{}, false
	}
	sh := t.shard(slot)
	sh.mu.RLock()
	s, ok := sh.m[slot]
	sh.mu.RUnlock()
	if !ok || s.gen != capGen(c) {
		return hslot{}, false
	}
	return s, true
}

// close removes a handle, returning the slot it held.
func (t *handleTable) close(c Cap) (hslot, bool) {
	slot := capSlot(c)
	if slot == 0 {
		return hslot{}, false
	}
	sh := t.shard(slot)
	sh.mu.Lock()
	s, ok := sh.m[slot]
	if ok && s.gen == capGen(c) {
		delete(sh.m, slot)
	} else {
		ok = false
	}
	sh.mu.Unlock()
	return s, ok
}

// refsPort reports whether any live handle still references the port;
// close uses it to decide whether the pid-level channel grant may drop.
func (t *handleTable) refsPort(pt *Port) bool {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, s := range sh.m {
			if s.port == pt {
				sh.mu.RUnlock()
				return true
			}
		}
		sh.mu.RUnlock()
	}
	return false
}

// drain marks the table dead and empties it: the Exit teardown step for
// handles. Idempotent; concurrent allocs observe dead and unwind.
func (t *handleTable) drain() {
	t.dead.Store(true)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = map[uint32]hslot{}
		sh.mu.Unlock()
	}
}

// len counts live handles (introspection and tests).
func (t *handleTable) len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
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
