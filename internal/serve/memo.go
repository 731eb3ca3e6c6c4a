package serve

import (
	"errors"
	"sync"
	"sync/atomic"
)

// memo is pilot-serve's one cache: a mutex-guarded LRU of decoded traces
// and rendered bodies under one byte budget, whose misses are computed
// once among concurrent callers, so n requests for the same cold tile (or
// the same undecoded trace) cost one render (one decode) and n-1 waits.
// An entry weighs its key plus what its value holds (weighed). Eviction
// drops least recently used entries, of either kind, until the total is
// back under the budget; a value heavier than the whole budget is
// returned but never cached, and counted as refused. Keys embed the
// generation of the file the value comes from, so entries of a replaced
// file fall out by never being asked for again. A failed compute is not
// cached. The lock covers map and list operations only, never compute.
type memo struct {
	mu      sync.Mutex
	budget  int64
	weight  int64 // of the cached entries, at most budget
	items   map[string]*memoEntry
	lru     memoEntry // list sentinel: lru.next is the most recently used
	flights map[string]*memoFlight

	// Per kind of value: hits counts gets answered from the cache, misses
	// gets that ran compute, shared gets that took another caller's
	// compute (counted before the wait, so a test can tell a waiter is
	// committed).
	hits, misses, shared [numKinds]atomic.Int64
	refused              atomic.Int64 // computed values too heavy to cache
}

// weighed is a cacheable value: its entry weighs its key and its bytes.
type weighed interface{ bytes() int64 }

// kind is what a lookup is for; the memo counts each kind's apart.
type kind int

const (
	traceKind kind = iota // a decoded *Trace
	bodyKind              // a rendered *cachedBody: a tile, profile or verdict
	numKinds
)

type memoEntry struct {
	key        string
	val        weighed
	weight     int64
	prev, next *memoEntry
}

// memoFlight is one compute in progress; val and err are set before
// done is closed.
type memoFlight struct {
	done chan struct{}
	val  weighed
	err  error
}

// errComputePanicked is what the waiters of a compute that panicked get.
var errComputePanicked = errors.New("serve: concurrent request panicked")

func newMemo(budget int64) *memo {
	m := &memo{
		budget:  budget,
		items:   map[string]*memoEntry{},
		flights: map[string]*memoFlight{},
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// get returns key's value, from the cache or else from compute, which
// runs once however many callers ask meanwhile; shared reports that the
// value came from another caller's compute. k says which counters the
// lookup goes to. A panic in compute releases the waiters with an error
// and carries on up the computing caller's stack.
func (m *memo) get(k kind, key string, compute func() (weighed, error)) (val weighed, shared bool, err error) {
	m.mu.Lock()
	if e, ok := m.items[key]; ok {
		m.unlink(e)
		m.pushFront(e)
		m.mu.Unlock()
		m.hits[k].Add(1)
		return e.val, false, nil
	}
	if f, ok := m.flights[key]; ok {
		m.mu.Unlock()
		m.shared[k].Add(1)
		<-f.done
		return f.val, true, f.err
	}
	f := &memoFlight{done: make(chan struct{}), err: errComputePanicked}
	m.flights[key] = f
	m.mu.Unlock()
	m.misses[k].Add(1)

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
func (m *memo) add(key string, val weighed) {
	w := int64(len(key)) + val.bytes()
	if w > m.budget {
		m.refused.Add(1)
		return
	}
	e := &memoEntry{key: key, val: val, weight: w}
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
func (m *memo) size() (weight, entries int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.weight, int64(len(m.items))
}

func (m *memo) unlink(e *memoEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (m *memo) pushFront(e *memoEntry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}
