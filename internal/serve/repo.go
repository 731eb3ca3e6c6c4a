// Package serve is the trace-tile HTTP service behind pilot-serve: a
// long-lived server hosting a repository of SLOG-2 traces (plus the raw
// CLOG-2 logs their profiles and verdicts are computed from) and
// answering tile queries — time window × rank window at a zoom level —
// by walking only the frames that intersect the viewport, exactly the
// level-of-detail access pattern the SLOG-2 frame tree exists for.
// Production posture: compute-once LRU caches over decoded files and
// rendered bodies (memo), ETag revalidation and gzip on the wire,
// graceful shutdown, and expvar/pprof observability.
package serve

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/clog2"
	"repro/internal/slog2"
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
// the raw <id>.clog2 logs registered beside them, fronted by a memo of
// decoded files so a thundering herd on a cold trace costs one decode.
type Repo struct {
	dir    string
	traces *memo[*Trace] // id+"\x00"+generation -> *Trace

	// decodes counts real slog2.ReadFile calls — the compute-once
	// verification hook the load harness and tests assert on.
	decodes atomic.Int64
}

// NewRepo opens the repository at dir, caching up to maxTraces decoded
// files.
func NewRepo(dir string, maxTraces int) (*Repo, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("serve: %s is not a directory", dir)
	}
	if maxTraces < 1 {
		maxTraces = 8
	}
	return &Repo{dir: dir, traces: newMemo(int64(maxTraces), weighOne[*Trace])}, nil
}

// Decodes returns how many times a trace file was actually decoded
// (cache misses that did real work).
func (r *Repo) Decodes() int64 { return r.decodes.Load() }

// Trace is one decoded repository entry, immutable once built.
type Trace struct {
	ID   string
	File *slog2.File
	// Gen fingerprints the on-disk bytes (mtime+size); it feeds tile
	// cache keys and ETags so a rewritten trace invalidates both.
	Gen string
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

// validID rejects ids that could traverse outside the repository dir.
func validID(id string) bool {
	if id == "" || len(id) > 255 {
		return false
	}
	if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return false
	}
	return id[0] != '.'
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
		if !validID(id) {
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

func (r *Repo) tracePath(id string) string { return filepath.Join(r.dir, id+".slog2") }
func (r *Repo) clogPath(id string) string  { return filepath.Join(r.dir, id+".clog2") }

// IndexStatus is the state of the block table of id's registered raw
// CLOG-2, validated as every reader does (clog2.LoadTable: about 64 bytes
// a block): "ok" when it validates, "degraded" when every query of the log
// is answered by the full scan, and "" when id has no raw log.
func (r *Repo) IndexStatus(id string) string {
	if !validID(id) {
		return ""
	}
	switch _, err := clog2.LoadTable(r.clogPath(id)); {
	case errors.Is(err, fs.ErrNotExist):
		return ""
	case err != nil:
		return "degraded"
	}
	return "ok"
}

// rawLog returns the path of id's registered raw CLOG-2 and its
// generation (mtime+size), the cache key of everything computed from it.
// ErrNotFound when the trace was registered without a raw log.
func (r *Repo) rawLog(id string) (path, gen string, err error) {
	if !validID(id) {
		return "", "", ErrBadID
	}
	path = r.clogPath(id)
	info, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return "", "", fmt.Errorf("%w: %s has no raw log registered", ErrNotFound, id)
		}
		return "", "", err
	}
	return path, fmt.Sprintf("%d-%d", info.ModTime().UnixNano(), info.Size()), nil
}

// Open returns the decoded trace for id, via the memo: concurrent cold
// opens cost one decode.
func (r *Repo) Open(id string) (*Trace, error) {
	if !validID(id) {
		return nil, ErrBadID
	}
	info, err := os.Stat(r.tracePath(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	gen := fmt.Sprintf("%d-%d", info.ModTime().UnixNano(), info.Size())
	tr, _, err := r.traces.get(id+"\x00"+gen, func() (*Trace, error) {
		r.decodes.Add(1)
		f, err := slog2.ReadFile(r.tracePath(id))
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, id, err)
		}
		return &Trace{ID: id, File: f, Gen: gen}, nil
	})
	return tr, err
}
