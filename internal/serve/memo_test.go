package serve

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/slog2"
)

// sized is a test value that holds as many bytes as it says.
type sized int64

func (v sized) bytes() int64 { return int64(v) }

// constant returns a compute that yields v and counts its runs.
func constant(v sized, runs *int) func() (weighed, error) {
	return func() (weighed, error) { *runs++; return v, nil }
}

// An entry weighs its one-byte key plus its value, so under a budget of 7
// any two of a (2), b (3) and c (4) fit and all three do not: the cache
// keeps the two most recently used.
func TestMemoLRU(t *testing.T) {
	m := newMemo(7)
	var runs int
	mustGet := func(key string, v sized, wantRuns int) {
		t.Helper()
		got, shared, err := m.get(bodyKind, key, constant(v, &runs))
		if err != nil || shared || got != v || runs != wantRuns {
			t.Fatalf("get(%q) = %v, shared %v, err %v after %d compute(s); want %d after %d", key, got, shared, err, runs, v, wantRuns)
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
		t.Fatalf("%d entries cached, two fit", len(m.items))
	}
	if h, ms := m.hits[bodyKind].Load(), m.misses[bodyKind].Load(); h != 4 || ms != 5 {
		t.Fatalf("hits %d, misses %d; want 4 and 5", h, ms)
	}
	// Each kind's lookups are counted apart.
	if h, ms := m.hits[traceKind].Load(), m.misses[traceKind].Load(); h != 0 || ms != 0 {
		t.Fatalf("trace hits %d, misses %d after body lookups only", h, ms)
	}
	if _, _, err := m.get(traceKind, "a", nil); err != nil || m.hits[traceKind].Load() != 1 || m.hits[bodyKind].Load() != 4 {
		t.Fatalf("a trace lookup's hit: %v, trace hits %d, body hits %d", err, m.hits[traceKind].Load(), m.hits[bodyKind].Load())
	}
}

// Weighed by key and value, the memo evicts from the cold end until it is
// back under its budget, and a value heavier than the whole budget is
// returned without being cached, and counted as refused.
func TestMemoByteBudget(t *testing.T) {
	m := newMemo(10)
	var runs int
	for _, c := range []struct {
		key           string
		v             sized
		wantRuns      int
		weight, count int64
	}{
		{"a", 3, 1, 4, 1},
		{"b", 3, 2, 8, 2},
		{"a", 3, 2, 8, 2},  // a hit: b is now the least recently used
		{"c", 5, 3, 10, 2}, // evicts b only
		{"d", 8, 4, 9, 1},  // evicts a and c
		{"e", 10, 5, 9, 1}, // heavier than the budget: served, not cached
		{"e", 10, 6, 9, 1},
		{"d", 8, 6, 9, 1},
	} {
		got, _, err := m.get(bodyKind, c.key, constant(c.v, &runs))
		weight, count := m.size()
		if err != nil || got != c.v || runs != c.wantRuns || weight != c.weight || count != c.count {
			t.Fatalf("get(%q) = %v, %v after %d compute(s), cache %d in %d; want %d after %d, cache %d in %d",
				c.key, got, err, runs, weight, count, c.v, c.wantRuns, c.weight, c.count)
		}
	}
	if n := m.refused.Load(); n != 2 {
		t.Fatalf("%d values refused, want e's two", n)
	}
}

func TestMemoFailedComputeIsNotCached(t *testing.T) {
	m := newMemo(100)
	boom := errors.New("boom")
	if _, _, err := m.get(bodyKind, "k", func() (weighed, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want the compute's", err)
	}
	var runs int
	if v, _, err := m.get(bodyKind, "k", constant(9, &runs)); err != nil || v != sized(9) || runs != 1 {
		t.Fatalf("after a failure: %d, %v, %d compute(s); want a fresh compute", v, err, runs)
	}
	if len(m.flights) != 0 {
		t.Fatalf("%d flight(s) left behind", len(m.flights))
	}
}

// Sixteen callers of one cold key: one computes and the other fifteen,
// all committed to its result before it is allowed to finish, share it.
func TestMemoComputesOnce(t *testing.T) {
	m := newMemo(100)
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := m.get(bodyKind, "k", func() (weighed, error) {
				computes.Add(1)
				<-gate
				return sized(7), nil
			})
			if err != nil || v != sized(7) {
				t.Errorf("get = %d, %v", v, err)
			}
		}()
	}
	for m.shared[bodyKind].Load() < 15 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 || m.misses[bodyKind].Load() != 1 {
		t.Fatalf("%d compute(s), %d miss(es); want exactly one", computes.Load(), m.misses[bodyKind].Load())
	}
	if h, sh := m.hits[bodyKind].Load(), m.shared[bodyKind].Load(); h+sh != 15 {
		t.Fatalf("hits %d + shared %d, want 15", h, sh)
	}
	if v, shared, err := m.get(bodyKind, "k", nil); err != nil || shared || v != sized(7) {
		t.Fatalf("cached get = %d, shared %v, %v", v, shared, err)
	}
}

// A compute that panics must not strand its waiter: the waiter gets an
// error, the panic reaches the computing caller, and the key computes
// again afterwards.
func TestMemoPanickingCompute(t *testing.T) {
	m := newMemo(100)
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		m.get(bodyKind, "k", func() (weighed, error) {
			<-release
			panic("render bug")
		})
	}()
	for m.misses[bodyKind].Load() < 1 {
		runtime.Gosched()
	}
	waiter := make(chan error, 1)
	go func() {
		_, shared, err := m.get(bodyKind, "k", func() (weighed, error) { return sized(1), nil })
		if !shared {
			t.Error("second caller computed for itself while the first was in flight")
		}
		waiter <- err
	}()
	for m.shared[bodyKind].Load() < 1 {
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
	if v, shared, err := m.get(bodyKind, "k", constant(5, &runs)); err != nil || shared || v != sized(5) || runs != 1 {
		t.Fatalf("after the panic: %d, shared %v, %v, %d compute(s); want a fresh compute", v, shared, err, runs)
	}
}

// budgetServer serves the golden traces from a cache of budget bytes.
func budgetServer(t *testing.T, budget int64) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{RepoDir: goldenDir, CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// traceEntryWeight is what golden trace id's cache entry weighs: its key
// and its decoded bytes.
func traceEntryWeight(t *testing.T, id string) int64 {
	t.Helper()
	repo, err := NewRepo(goldenDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := repo.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len("trace\x00"+id+"\x00"+tr.Gen)) + tr.size
}

// Traces and tiles share one budget and one recency order. Under a budget
// that fits trace A (thumbnail) and a few of its tiles, a burst of tiles
// on A evicts the cold trace B (lab2) and never A, whose every tile
// request touches it; the gauge stays inside the budget throughout.
func TestTileBurstEvictsTheColdTrace(t *testing.T) {
	budget := traceEntryWeight(t, "thumbnail") + 16<<10
	s, ts := budgetServer(t, budget)
	fetch := func(url string) {
		t.Helper()
		if resp, body := get(t, ts.URL+url, map[string]string{"Accept-Encoding": "gzip"}); resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
		}
		if held := s.MetricsSnapshot()["cache_bytes"]; held <= 0 || held > budget {
			t.Fatalf("after %s: cache_bytes %d, budget %d", url, held, budget)
		}
	}
	fetch("/trace/lab2/tile")
	for zoom := 0; zoom <= 3; zoom++ {
		for _, format := range []string{"svg", "json"} {
			for _, win := range []string{"", "&t1=0.0015", "&t0=0.0015"} {
				fetch(fmt.Sprintf("/trace/thumbnail/tile?format=%s&zoom=%d%s", format, zoom, win))
			}
		}
	}
	if n := s.MetricsSnapshot()["trace_decodes"]; n != 2 {
		t.Fatalf("%d decodes over the burst, want one a trace: thumbnail was evicted", n)
	}
	fetch("/trace/thumbnail/legend")
	if n := s.MetricsSnapshot()["trace_decodes"]; n != 2 {
		t.Fatalf("thumbnail decoded again after the burst")
	}
	fetch("/trace/lab2/legend")
	if n := s.MetricsSnapshot()["trace_decodes"]; n != 3 {
		t.Fatalf("%d decodes: lab2, cold through the burst, was still cached", n)
	}
	if n := s.MetricsSnapshot()["cache_refused"]; n != 0 {
		t.Fatalf("cache_refused %d, want 0: everything fit the budget", n)
	}
}

// A trace heavier than the whole budget is served, counted as refused,
// and decoded again on the next request.
func TestTraceHeavierThanBudgetIsRefused(t *testing.T) {
	budget := traceEntryWeight(t, "collisions") - 1
	s, ts := budgetServer(t, budget)
	for i := int64(1); i <= 2; i++ {
		if resp, body := get(t, ts.URL+"/trace/collisions", nil); resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		m := s.MetricsSnapshot()
		if m["cache_refused"] != i || m["trace_decodes"] != i || m["cache_bytes"] != 0 {
			t.Fatalf("after request %d: cache_refused %d, trace_decodes %d, cache_bytes %d; want %d, %d, 0",
				i, m["cache_refused"], m["trace_decodes"], m["cache_bytes"], i, i)
		}
	}
}

// A decoded trace weighs its file's size plus, on a 64-bit machine, 104
// bytes a frame, 64 a state, 48 an arrow and 40 an event; its entry
// weighs that and its key.
func TestTraceWeightIsAHandSum(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("the hand sum counts 64-bit words")
	}
	for _, id := range goldenIDs {
		path := filepath.Join(goldenDir, id+".slog2")
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := slog2.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := info.Size()
		f.Walk(func(fr *slog2.Frame) {
			want += 104 + 64*int64(len(fr.States)) + 48*int64(len(fr.Arrows)) + 40*int64(len(fr.Events))
		})
		repo, err := NewRepo(goldenDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := repo.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		if tr.size != want {
			t.Errorf("%s weighs %d, hand sum %d", id, tr.size, want)
		}
		if held, _ := repo.cache.size(); held != want+int64(len("trace\x00"+id+"\x00"+tr.Gen)) {
			t.Errorf("%s: cache holds %d, want %d and the key", id, held, want)
		}
	}
}

// The counter names of /debug/vars, pinned: a rename fails here rather
// than in a bench run, which reads the ones in benchReads.
func TestMetricsSnapshotKeys(t *testing.T) {
	want := []string{
		"analyzes_computed", "analyzes_singleflight", "bytes_sent",
		"cache_bytes", "cache_entries", "cache_refused", "errors",
		"profiles_windowed", "profiles_windowed_indexed", "requests",
		"responses_304", "tile_bytes_gz", "tile_bytes_raw",
		"tile_cache_hits", "tile_cache_misses", "tile_compress_ns",
		"tile_render_ns", "tiles_rendered", "tiles_singleflight_shared",
		"trace_cache_hits", "trace_cache_misses", "trace_decodes",
	}
	benchReads := []string{"tile_cache_hits", "tile_cache_misses", "trace_decodes", "tiles_rendered",
		"tiles_singleflight_shared", "responses_304", "bytes_sent", "errors"}
	s, _ := budgetServer(t, 0)
	var got []string
	for k := range s.MetricsSnapshot() {
		got = append(got, k)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("counters %v\nwant %v", got, want)
	}
	for _, k := range benchReads {
		if i := sort.SearchStrings(want, k); i == len(want) || want[i] != k {
			t.Errorf("the bench reads %q, which is not a counter", k)
		}
	}
}
