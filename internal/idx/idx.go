// Package idx is what bench/ still calls of the block-table query layer
// that now lives in clog2 (walk.go): forwarding declarations with no logic
// of their own, and the three shims of the ".idx" sidecar this package
// used to write beside a log. No other package imports it; it goes once
// ROADMAP 5(g) moves bench/ onto clog2.
package idx

import (
	"os"

	"repro/internal/clog2"
)

// Index is a log's validated block table.
type Index = clog2.Table

// Query selects blocks (clog2.Query).
type Query = clog2.Query

// MatchAll returns the query that selects every block (clog2.MatchAll).
func MatchAll() Query { return clog2.MatchAll() }

// Load reads and validates the block table at the end of the log at path
// (clog2.LoadTable).
func Load(path string) (*Index, error) { return clog2.LoadTable(path) }

// BuildFile returns the table of the log at path: the one the log carries,
// or a scan's when it has none. Until ROADMAP 5(g).
func BuildFile(path string) (*Index, error) {
	if ix, err := Load(path); err == nil {
		return ix, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return clog2.ScanTable(f)
}

// WriteFileFor writes nothing: the log carries its table. Until ROADMAP
// 5(g).
func WriteFileFor(string, *Index) error { return nil }

// SidecarPath is the name the sidecar had beside clogPath; no file is
// written there. Until ROADMAP 5(g).
func SidecarPath(clogPath string) string { return clogPath + ".idx" }
