package serve

import (
	"errors"
	"sync"
	"sync/atomic"
)

// memo is pilot-serve's one cache: a mutex-guarded LRU bounded by the
// total weight of its entries, whose misses are computed once among
// concurrent callers, so n requests for the same cold tile (or the same
// undecoded trace) cost one render (one decode) and n-1 waits. The server
// keeps two: decoded traces, each weighing 1 against a budget of
// MaxTraces, and rendered bodies, each weighing its bytes against a byte
// budget. Eviction drops least recently used entries until the total is
// back under the budget; a value heavier than the whole budget is
// returned but never cached. Keys embed the trace generation, so entries
// of a replaced trace fall out by never being asked for again. A failed
// compute is not cached. The lock covers map and list operations only,
// never compute.
type memo[V any] struct {
	mu      sync.Mutex
	budget  int64
	weigh   func(key string, val V) int64
	weight  int64 // of the cached entries, at most budget
	items   map[string]*memoEntry[V]
	lru     memoEntry[V] // list sentinel: lru.next is the most recently used
	flights map[string]*memoFlight[V]

	// hits counts gets answered from the cache, misses gets that ran
	// compute, shared gets that took another caller's compute (counted
	// before the wait, so a test can tell a waiter is committed).
	hits, misses, shared atomic.Int64
}

type memoEntry[V any] struct {
	key        string
	val        V
	weight     int64
	prev, next *memoEntry[V]
}

// memoFlight is one compute in progress; val and err are set before
// done is closed.
type memoFlight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// errComputePanicked is what the waiters of a compute that panicked get.
var errComputePanicked = errors.New("serve: concurrent request panicked")

func newMemo[V any](budget int64, weigh func(key string, val V) int64) *memo[V] {
	m := &memo[V]{
		budget:  budget,
		weigh:   weigh,
		items:   map[string]*memoEntry[V]{},
		flights: map[string]*memoFlight[V]{},
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// weighOne counts entries: a memo built with it is bounded by entry count.
func weighOne[V any](string, V) int64 { return 1 }

// get returns key's value, from the cache or else from compute, which
// runs once however many callers ask meanwhile; shared reports that the
// value came from another caller's compute. A panic in compute releases
// the waiters with an error and carries on up the computing caller's
// stack.
func (m *memo[V]) get(key string, compute func() (V, error)) (val V, shared bool, err error) {
	m.mu.Lock()
	if e, ok := m.items[key]; ok {
		m.unlink(e)
		m.pushFront(e)
		m.mu.Unlock()
		m.hits.Add(1)
		return e.val, false, nil
	}
	if f, ok := m.flights[key]; ok {
		m.mu.Unlock()
		m.shared.Add(1)
		<-f.done
		return f.val, true, f.err
	}
	f := &memoFlight[V]{done: make(chan struct{}), err: errComputePanicked}
	m.flights[key] = f
	m.mu.Unlock()
	m.misses.Add(1)

	defer func() {
		m.mu.Lock()
		delete(m.flights, key)
		if f.err == nil {
			m.add(key, f.val)
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, false, f.err
}

// add caches val unless it outweighs the whole budget, then evicts from
// the cold end until the total is back under it. m.mu must be held.
func (m *memo[V]) add(key string, val V) {
	w := m.weigh(key, val)
	if w > m.budget {
		return
	}
	e := &memoEntry[V]{key: key, val: val, weight: w}
	m.items[key] = e
	m.pushFront(e)
	m.weight += w
	for m.weight > m.budget {
		last := m.lru.prev
		m.unlink(last)
		delete(m.items, last.key)
		m.weight -= last.weight
	}
}

// size reports the cached entries' total weight and their number.
func (m *memo[V]) size() (weight, entries int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.weight, int64(len(m.items))
}

func (m *memo[V]) unlink(e *memoEntry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (m *memo[V]) pushFront(e *memoEntry[V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}
