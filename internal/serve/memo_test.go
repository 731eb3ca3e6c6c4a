package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// constant returns a compute that yields v and counts its runs.
func constant(v int, runs *int) func() (int, error) {
	return func() (int, error) { *runs++; return v, nil }
}

func TestMemoLRU(t *testing.T) {
	m := newMemo(2, weighOne[int])
	var runs int
	mustGet := func(key string, v, wantRuns int) {
		t.Helper()
		got, shared, err := m.get(key, constant(v, &runs))
		if err != nil || shared || got != v || runs != wantRuns {
			t.Fatalf("get(%q) = %d, shared %v, err %v after %d compute(s); want %d after %d", key, got, shared, err, runs, v, wantRuns)
		}
	}
	mustGet("a", 1, 1)
	mustGet("b", 2, 2)
	mustGet("a", 1, 2) // a hit, which makes b the least recently used
	mustGet("c", 3, 3) // evicts b
	mustGet("a", 1, 3)
	mustGet("c", 3, 3)
	mustGet("b", 2, 4) // computed again, evicting a
	mustGet("c", 3, 4)
	mustGet("a", 1, 5)
	if len(m.items) != 2 {
		t.Fatalf("%d entries cached, bound is 2", len(m.items))
	}
	if h, ms := m.hits.Load(), m.misses.Load(); h != 4 || ms != 5 {
		t.Fatalf("hits %d, misses %d; want 4 and 5", h, ms)
	}
}

// Weighed by value, the memo evicts from the cold end until it is back
// under its budget, and a value heavier than the whole budget is returned
// without being cached.
func TestMemoByteBudget(t *testing.T) {
	m := newMemo(10, func(_ string, v int) int64 { return int64(v) })
	var runs int
	for _, c := range []struct {
		key           string
		v, wantRuns   int
		weight, count int64
	}{
		{"a", 4, 1, 4, 1},
		{"b", 4, 2, 8, 2},
		{"a", 4, 2, 8, 2},  // a hit: b is now the least recently used
		{"c", 6, 3, 10, 2}, // evicts b only
		{"d", 9, 4, 9, 1},  // evicts a and c
		{"e", 11, 5, 9, 1}, // heavier than the budget: served, not cached
		{"e", 11, 6, 9, 1},
		{"d", 9, 6, 9, 1},
	} {
		got, _, err := m.get(c.key, constant(c.v, &runs))
		weight, count := m.size()
		if err != nil || got != c.v || runs != c.wantRuns || weight != c.weight || count != c.count {
			t.Fatalf("get(%q) = %d, %v after %d compute(s), cache %d in %d; want %d after %d, cache %d in %d",
				c.key, got, err, runs, weight, count, c.v, c.wantRuns, c.weight, c.count)
		}
	}
}

func TestMemoFailedComputeIsNotCached(t *testing.T) {
	m := newMemo(4, weighOne[int])
	boom := errors.New("boom")
	if _, _, err := m.get("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v, want the compute's", err)
	}
	var runs int
	if v, _, err := m.get("k", constant(9, &runs)); err != nil || v != 9 || runs != 1 {
		t.Fatalf("after a failure: %d, %v, %d compute(s); want a fresh compute", v, err, runs)
	}
	if len(m.flights) != 0 {
		t.Fatalf("%d flight(s) left behind", len(m.flights))
	}
}

// Sixteen callers of one cold key: one computes and the other fifteen,
// all committed to its result before it is allowed to finish, share it.
func TestMemoComputesOnce(t *testing.T) {
	m := newMemo(4, weighOne[int])
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := m.get("k", func() (int, error) {
				computes.Add(1)
				<-gate
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	for m.shared.Load() < 15 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 || m.misses.Load() != 1 {
		t.Fatalf("%d compute(s), %d miss(es); want exactly one", computes.Load(), m.misses.Load())
	}
	if h, sh := m.hits.Load(), m.shared.Load(); h+sh != 15 {
		t.Fatalf("hits %d + shared %d, want 15", h, sh)
	}
	if v, shared, err := m.get("k", nil); err != nil || shared || v != 7 {
		t.Fatalf("cached get = %d, shared %v, %v", v, shared, err)
	}
}

// A compute that panics must not strand its waiter: the waiter gets an
// error, the panic reaches the computing caller, and the key computes
// again afterwards.
func TestMemoPanickingCompute(t *testing.T) {
	m := newMemo(4, weighOne[int])
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		m.get("k", func() (int, error) {
			<-release
			panic("render bug")
		})
	}()
	for m.misses.Load() < 1 {
		runtime.Gosched()
	}
	waiter := make(chan error, 1)
	go func() {
		_, shared, err := m.get("k", func() (int, error) { return 1, nil })
		if !shared {
			t.Error("second caller computed for itself while the first was in flight")
		}
		waiter <- err
	}()
	for m.shared.Load() < 1 {
		runtime.Gosched()
	}
	close(release)
	if r := <-panicked; r != "render bug" {
		t.Fatalf("computing caller recovered %v, want the compute's panic", r)
	}
	if err := <-waiter; err != errComputePanicked {
		t.Fatalf("waiter got %v, want errComputePanicked", err)
	}
	var runs int
	if v, shared, err := m.get("k", constant(5, &runs)); err != nil || shared || v != 5 || runs != 1 {
		t.Fatalf("after the panic: %d, shared %v, %v, %d compute(s); want a fresh compute", v, shared, err, runs)
	}
}
