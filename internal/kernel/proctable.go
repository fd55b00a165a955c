package kernel

import (
	"sync"
	"sync/atomic"
)

// procTable is the kernel's process registry: a lock-striped pid → *Process
// map plus an atomic pid allocator. It is one of the independently
// synchronized registries the kernel monolith decomposed into — a lookup
// takes one shard read-lock and never contends with process creation or
// teardown on a different shard.
//
// Invariant: a pid is present iff the process has been created and has not
// completed Exit. Liveness races at the create/exit boundary are resolved by
// the callers (see CreateProcess and Process.Exit): state registered for a
// process concurrently observed exiting is unwound by whichever side runs
// second.
type procTable struct {
	shards  [procShards]procShard
	nextPID atomic.Int64
	// labelGen counts labels leaving the labelstores of this table's
	// processes: a Delete, the source side of a Transfer, an Exit. It is
	// the labelstore half of Kernel.credGen, bumped after the label has
	// gone.
	labelGen atomic.Uint64
}

const procShards = 16 // power of two so the shard index is a mask

type procShard struct {
	mu sync.RWMutex
	m  map[int]*Process
}

func newProcTable() *procTable {
	t := &procTable{}
	for i := range t.shards {
		t.shards[i].m = map[int]*Process{}
	}
	return t
}

func (t *procTable) shard(pid int) *procShard {
	return &t.shards[uint(pid)&(procShards-1)]
}

// alloc reserves the next pid.
func (t *procTable) alloc() int { return int(t.nextPID.Add(1)) }

func (t *procTable) get(pid int) (*Process, bool) {
	s := t.shard(pid)
	s.mu.RLock()
	p, ok := s.m[pid]
	s.mu.RUnlock()
	return p, ok
}

func (t *procTable) insert(p *Process) {
	s := t.shard(p.PID)
	s.mu.Lock()
	s.m[p.PID] = p
	s.mu.Unlock()
}

func (t *procTable) remove(pid int) {
	s := t.shard(pid)
	s.mu.Lock()
	delete(s.m, pid)
	s.mu.Unlock()
}

func (t *procTable) len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// pids snapshots the live pids in unspecified order.
func (t *procTable) pids() []int {
	out := make([]int, 0, 16)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for pid := range s.m {
			out = append(out, pid)
		}
		s.mu.RUnlock()
	}
	return out
}
