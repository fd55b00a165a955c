package kernel

import "sync"

// proofStore is the registered-proof registry: a lock-striped
// tupleKey → *registration map. authorize reads it on every decision-cache
// miss; setproof/clearproof write it. Striping by tuple hash keeps proof
// registration for one tuple from stalling lookups for any other.
type proofStore struct {
	shards [proofShards]proofShard
}

const proofShards = 16

type proofShard struct {
	mu sync.RWMutex
	m  map[tupleKey]*registration
}

func newProofStore() *proofStore {
	ps := &proofStore{}
	for i := range ps.shards {
		ps.shards[i].m = map[tupleKey]*registration{}
	}
	return ps
}

func (ps *proofStore) shard(k tupleKey) *proofShard {
	// Inline FNV-1a with a separator byte between fields: authorize reads
	// this store on every decision-cache miss, so shard selection must not
	// allocate the way a hash.Hash32 would.
	h := fnvHashString(fnvHashString(fnvHashString(fnvOffset, k.subj), k.op), k.obj)
	return &ps.shards[h&(proofShards-1)]
}

const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

func fnvHashString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // field separator, outside the byte values of UTF-8 text keys
	h *= fnvPrime
	return h
}

func (ps *proofStore) get(k tupleKey) *registration {
	s := ps.shard(k)
	s.mu.RLock()
	reg := s.m[k]
	s.mu.RUnlock()
	return reg
}

func (ps *proofStore) set(k tupleKey, reg *registration) {
	s := ps.shard(k)
	s.mu.Lock()
	s.m[k] = reg
	s.mu.Unlock()
}

func (ps *proofStore) delete(k tupleKey) {
	s := ps.shard(k)
	s.mu.Lock()
	delete(s.m, k)
	s.mu.Unlock()
}
