package kernel

import "container/list"

// lruTable is a capacity-bounded string-keyed map with least-recently-used
// eviction. The transport uses it for the per-connection warm
// re-attestation tables (client-side attested fingerprints, server-side
// verified certificates): a long-lived connection transferring many
// distinct labels stays memory-bounded, and an evicted entry just costs
// one cold re-crossing. Callers provide their own synchronization (the
// client table lives under Peer.sendMu; the server table is confined to
// the connection's goroutine).
type lruTable[V any] struct {
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRUTable[V any](capacity int) *lruTable[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruTable[V]{cap: capacity, ll: list.New(), m: map[string]*list.Element{}}
}

// get returns the value and refreshes the entry's recency.
func (t *lruTable[V]) get(key string) (V, bool) {
	if el, ok := t.m[key]; ok {
		t.ll.MoveToFront(el)
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or updates the entry, evicting the least recently used one
// when the table is at capacity.
func (t *lruTable[V]) put(key string, val V) {
	if el, ok := t.m[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		t.ll.MoveToFront(el)
		return
	}
	if t.ll.Len() >= t.cap {
		back := t.ll.Back()
		if back != nil {
			t.ll.Remove(back)
			delete(t.m, back.Value.(*lruEntry[V]).key)
		}
	}
	t.m[key] = t.ll.PushFront(&lruEntry[V]{key: key, val: val})
}

func (t *lruTable[V]) remove(key string) {
	if el, ok := t.m[key]; ok {
		t.ll.Remove(el)
		delete(t.m, key)
	}
}

func (t *lruTable[V]) len() int { return t.ll.Len() }
