// Package cachestat defines the hit/miss/eviction statistics contract
// shared by the authorization caches: the kernel decision cache (§2.8),
// the guard proof cache (§2.9), the credential verify cache and the proof
// memo. They all expose the same Stats shape so benchmarks and operators
// read them uniformly.
//
// A hit, the warm path's only event, adds to one word of a stripe the
// caller chooses; the stripes are cache-line padded, so callers on
// different cores that pass different stripe keys (the kernel decision
// cache passes the calling process's PID) never write a line another core
// reads. Misses and evictions, which happen off the warm path, are single
// words. Lookups is not counted: Snapshot reports it as Hits + Misses.
package cachestat

import "sync/atomic"

// Stats is a point-in-time snapshot of cache activity; Lookups is always
// Hits + Misses.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// numStripes is the hit-counter stripe count (a power of two).
const numStripes = 16

// stripe is one hit word padded to a cache line of its own.
type stripe struct {
	n atomic.Uint64
	_ [56]byte
}

// Counters is the lock-free accumulator backing Stats. The zero value is
// ready to use.
type Counters struct {
	misses, evictions atomic.Uint64
	_                 [56]byte // keeps hits[0] off the line misses share
	hits              [numStripes]stripe
}

// Lookup records one cache probe and its outcome. key picks the hit
// stripe: pass something stable per concurrent caller, such as a PID, so
// that callers on different cores write different cache lines.
func (c *Counters) Lookup(key uint64, hit bool) {
	if hit {
		c.hits[key&(numStripes-1)].n.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Evicted records n entries removed by eviction or invalidation.
func (c *Counters) Evicted(n uint64) {
	if n > 0 {
		c.evictions.Add(n)
	}
}

// Snapshot reads the counters. Individual words are each read atomically;
// a snapshot taken while lookups run may mix their before and after.
func (c *Counters) Snapshot() Stats {
	s := Stats{Misses: c.misses.Load(), Evictions: c.evictions.Load()}
	for i := range c.hits {
		s.Hits += c.hits[i].n.Load()
	}
	s.Lookups = s.Hits + s.Misses
	return s
}

// Reset zeroes all counters. Not linearizable with respect to concurrent
// Lookup calls; callers that need exact counts reset only while quiescent.
func (c *Counters) Reset() {
	c.misses.Store(0)
	c.evictions.Store(0)
	for i := range c.hits {
		c.hits[i].n.Store(0)
	}
}
