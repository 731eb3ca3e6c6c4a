package serve

import (
	"errors"
	"sync"
	"sync/atomic"
)

// memo is pilot-serve's one cache: a mutex-guarded, entry-bounded LRU
// whose misses are computed once among concurrent callers, so n requests
// for the same cold tile (or the same undecoded trace) cost one render
// (one decode) and n-1 waits. The server keeps two: decoded traces (few
// entries, each potentially large) and rendered bodies (many small
// entries). Bounding by entry count keeps the policy obvious; keys embed
// the trace generation, so entries of a replaced trace fall out by never
// being asked for again. A failed compute is not cached. The lock covers
// map and list operations only, never compute.
type memo[V any] struct {
	mu      sync.Mutex
	max     int
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

func newMemo[V any](max int) *memo[V] {
	m := &memo[V]{
		max:     max,
		items:   map[string]*memoEntry[V]{},
		flights: map[string]*memoFlight[V]{},
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

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
			e := &memoEntry[V]{key: key, val: f.val}
			m.items[key] = e
			m.pushFront(e)
			if len(m.items) > m.max {
				last := m.lru.prev
				m.unlink(last)
				delete(m.items, last.key)
			}
		}
		m.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, false, f.err
}

func (m *memo[V]) unlink(e *memoEntry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (m *memo[V]) pushFront(e *memoEntry[V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}
