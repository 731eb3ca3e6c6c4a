// Package serve is the trace-tile HTTP service behind pilot-serve: a
// long-lived server hosting a repository of SLOG-2 traces (plus the raw
// CLOG-2 logs their profiles and verdicts are computed from) and
// answering tile queries — time window × rank window at a zoom level —
// by walking only the frames that intersect the viewport, exactly the
// level-of-detail access pattern the SLOG-2 frame tree exists for.
// Production posture: one compute-once LRU over decoded traces and
// rendered bodies under one byte budget (memo), ETag revalidation and
// gzip on the wire, graceful shutdown, and expvar/pprof observability.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unsafe"

	"repro/internal/clog2"
	"repro/internal/slog2"
	"repro/vis"
)

// Errors the HTTP layer maps onto status codes.
var (
	// ErrNotFound: no such trace in the repository (404).
	ErrNotFound = errors.New("serve: trace not found")
	// ErrBadID: the trace id could escape the repository dir (400).
	ErrBadID = errors.New("serve: invalid trace id")
	// ErrCorrupt: the trace file exists but does not decode (422) — the
	// hostile-file case the hardened slog2 reader turns into an error
	// instead of a panic.
	ErrCorrupt = errors.New("serve: corrupt trace")
)

// Repo is the trace repository: a directory of <id>.slog2 files and
// the raw <id>.clog2 logs registered beside them, fronted by the server's
// one cache, so a thundering herd on a cold trace costs one decode.
type Repo struct {
	dir string
	// cache holds the decoded traces ("trace\x00"+id+"\x00"+generation),
	// each trace miss one slog2.ReadFile, and the bodies the Server
	// renders beside them.
	cache *memo
}

// defaultCacheBytes is the cache's budget when it is given as zero. A
// bench serve_session caches about 49 MB: four decoded traces of 8.6 MB
// (traceBytes) and 14.0 MB of gzip bodies. Eight such traces and the
// 64 MiB rendered bodies once had to themselves make about 136 MB.
const defaultCacheBytes = 128 << 20

// NewRepo opens the repository at dir, its cache holding up to
// cacheBytes (below 1: defaultCacheBytes) of traces and bodies.
func NewRepo(dir string, cacheBytes int64) (*Repo, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("serve: %s is not a directory", dir)
	}
	if cacheBytes < 1 {
		cacheBytes = defaultCacheBytes
	}
	return &Repo{dir: dir, cache: newMemo(cacheBytes)}, nil
}

// Trace is one decoded repository entry, immutable once built.
type Trace struct {
	ID   string
	File *slog2.File
	// Gen fingerprints the on-disk bytes (mtime+size); it feeds tile
	// cache keys and ETags so a rewritten trace invalidates both.
	Gen  string
	size int64 // what it holds (traceBytes); 0 in a Trace built by hand
}

func (t *Trace) bytes() int64 { return t.size }

// traceBytes is what a decoded trace holds: its file's bytes, which its
// strings are cut from and keep alive in one object (slog2.ReadFile),
// plus each of its frames, states, arrows and events at unsafe.Sizeof of
// one; the slices' spare capacity and the headers are not counted. On the
// four traces of a bench serve_session (seed 1, each a 4.2 MB CLOG-2)
// this gives 8.62-8.63 MB a trace against 8.94-8.96 MB of live heap
// (HeapAlloc after a GC, before and after slog2.ReadFile).
func traceBytes(fileSize int64, f *slog2.File) int64 {
	n := fileSize
	f.Walk(func(fr *slog2.Frame) {
		n += int64(unsafe.Sizeof(*fr)) +
			int64(len(fr.States))*int64(unsafe.Sizeof(slog2.State{})) +
			int64(len(fr.Arrows))*int64(unsafe.Sizeof(slog2.Arrow{})) +
			int64(len(fr.Events))*int64(unsafe.Sizeof(slog2.Event{}))
	})
	return n
}

// TraceInfo is one /traces listing row: cheap stat-level facts, no
// decode.
type TraceInfo struct {
	ID        string `json:"id"`
	SizeBytes int64  `json:"size_bytes"`
	ModTime   string `json:"mod_time"`
	// HasClog reports a registered raw CLOG-2 next to the trace — the
	// prerequisite for profile and verdict queries.
	HasClog bool `json:"has_clog"`
	// Index is the state of the raw log's block table (IndexStatus: "ok",
	// "degraded"); empty when there is no raw log.
	Index string `json:"index,omitempty"`
}

// List enumerates the repository's traces by scanning the directory;
// nothing is decoded.
func (r *Repo) List() ([]TraceInfo, error) {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, err
	}
	var out []TraceInfo
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".slog2") {
			continue
		}
		id := strings.TrimSuffix(name, ".slog2")
		if !vis.ValidTraceID(id) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		ti := TraceInfo{
			ID:        id,
			SizeBytes: info.Size(),
			ModTime:   info.ModTime().UTC().Format("2006-01-02T15:04:05Z"),
		}
		ti.Index = r.IndexStatus(id)
		ti.HasClog = ti.Index != ""
		out = append(out, ti)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// IndexStatus is the state of the block table of id's registered raw
// CLOG-2, validated as every reader does (clog2.LoadTable: about 56 bytes
// a block): "ok" when it validates, "degraded" when every query of the log
// is answered by the full scan, and "" when id has no raw log.
func (r *Repo) IndexStatus(id string) string {
	if !vis.ValidTraceID(id) {
		return ""
	}
	switch _, err := clog2.LoadTable(filepath.Join(r.dir, id+".clog2")); {
	case errors.Is(err, fs.ErrNotExist):
		return ""
	case err != nil:
		return "degraded"
	}
	return "ok"
}

// stat finds id's file with extension ext and its generation
// (mtime+size), which every cache key and ETag made from the file embeds,
// so a rewritten file is computed again. ErrBadID for an id that could
// escape the repository; ErrNotFound when there is no such file.
func (r *Repo) stat(id, ext string) (path, gen string, size int64, err error) {
	if !vis.ValidTraceID(id) {
		return "", "", 0, ErrBadID
	}
	path = filepath.Join(r.dir, id+ext)
	info, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return "", "", 0, fmt.Errorf("%w: %s has no %s", ErrNotFound, id, ext)
		}
		return "", "", 0, err
	}
	return path, fmt.Sprintf("%d-%d", info.ModTime().UnixNano(), info.Size()), info.Size(), nil
}

// Open returns the decoded trace for id, via the cache: concurrent cold
// opens cost one decode.
func (r *Repo) Open(id string) (*Trace, error) {
	path, gen, size, err := r.stat(id, ".slog2")
	if err != nil {
		return nil, err
	}
	v, _, err := r.cache.get(traceKind, "trace\x00"+id+"\x00"+gen, func() (weighed, error) {
		f, err := slog2.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, id, err)
		}
		return &Trace{ID: id, File: f, Gen: gen, size: traceBytes(size, f)}, nil
	})
	tr, _ := v.(*Trace)
	return tr, err
}
