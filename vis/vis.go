// Package vis is the public face of the log-visualization pipeline: the
// paper's CLOG-2 → SLOG-2 → Jumpshot display chain. It wraps
// internal/clog2, internal/slog2 and internal/jumpshot into the few calls
// a tool or test needs:
//
//	sf, rep, err := vis.ConvertFile("pilot.clog2", vis.ConvertOptions{})
//	err = vis.RenderSVGFile("run.svg", sf, vis.View{Title: "my run"})
//	fmt.Print(vis.FormatLegend(vis.Legend(sf, sf.Start, sf.End)))
package vis

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyze"
	"repro/internal/clog2"
	"repro/internal/jumpshot"
	"repro/internal/slog2"
	"repro/internal/stats"
)

// Re-exported pipeline types.
type (
	// File is a parsed SLOG-2 visualization log.
	File = slog2.File
	// ConvertOptions tunes CLOG-2 → SLOG-2 conversion (frame size, worker
	// count; output is byte-identical at any worker count).
	ConvertOptions = slog2.ConvertOptions
	// Report carries conversion diagnostics (Equal Drawables and friends).
	Report = slog2.Report
	// View controls timeline rendering (viewport, size, previews).
	View = jumpshot.View
	// Annotation is one verdict marker overlaid on a rendered timeline.
	Annotation = jumpshot.Annotation
	// LegendEntry is one row of the legend table.
	LegendEntry = jumpshot.LegendEntry
	// RankStats is one timeline's duration statistics.
	RankStats = jumpshot.RankStats
	// Hit is one search-and-scan result.
	Hit = jumpshot.Hit
	// SearchOptions narrows a search.
	SearchOptions = jumpshot.SearchOptions
)

// Convert turns a CLOG-2 stream into an SLOG-2 file. Blocks are streamed
// from r one at a time (clog2.BlockReader), so the raw log is never fully
// materialized; the per-rank pairing phases run on a worker pool sized by
// opts.Workers (0 = GOMAXPROCS).
func Convert(r io.Reader, opts ConvertOptions) (*File, *Report, error) {
	return slog2.ConvertReader(r, opts)
}

// ConvertFile converts the CLOG-2 file at path.
func ConvertFile(path string, opts ConvertOptions) (*File, *Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Convert(f, opts)
}

// WriteSLOG2 serialises an SLOG-2 file to path.
func WriteSLOG2(path string, f *File) error { return slog2.WriteFile(path, f) }

// ReadSLOG2 parses the SLOG-2 file at path.
func ReadSLOG2(path string) (*File, error) { return slog2.ReadFile(path) }

// RenderSVGFile draws the log Jumpshot-style as an SVG document at path.
func RenderSVGFile(path string, f *File, v View) error {
	return os.WriteFile(path, jumpshot.AppendSVG(nil, f, v), 0o644)
}

// RenderHTML wraps the timeline in a self-contained interactive page:
// wheel zoom, drag scroll, hover popups, legend table.
func RenderHTML(f *File, v View) string { return jumpshot.RenderHTML(f, v) }

// RenderHTMLFile renders the interactive page straight to a file.
func RenderHTMLFile(path string, f *File, v View) error {
	return os.WriteFile(path, []byte(RenderHTML(f, v)), 0o644)
}

// RenderStatsSVG draws the duration-statistics view (stacked bars per
// rank) over [t0, t1].
func RenderStatsSVG(f *File, t0, t1 float64, title string) string {
	return jumpshot.RenderStatsSVG(f, t0, t1, title)
}

// RenderChromeTrace exports the log as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
func RenderChromeTrace(f *File) ([]byte, error) { return jumpshot.RenderChromeTrace(f) }

// At describes the drawables under a (rank, time) point — the click-popup
// primitive.
func At(f *File, rank int, t float64) []string { return jumpshot.At(f, rank, t) }

// RenderASCII draws the log as text timelines for terminals.
func RenderASCII(f *File, v View) string { return jumpshot.RenderASCII(f, v) }

// Legend computes the legend statistics (count, incl, excl) over a window.
func Legend(f *File, t0, t1 float64) []LegendEntry { return jumpshot.Legend(f, t0, t1) }

// SortLegend orders legend entries by "name", "count", "incl" or "excl".
func SortLegend(entries []LegendEntry, key string) { jumpshot.SortLegend(entries, key) }

// FormatLegend renders the legend as an aligned text table.
func FormatLegend(entries []LegendEntry) string { return jumpshot.FormatLegend(entries) }

// Stats computes per-rank category statistics over a selected duration.
func Stats(f *File, t0, t1 float64) []RankStats { return jumpshot.Stats(f, t0, t1) }

// FormatStats renders rank statistics as a table.
func FormatStats(f *File, stats []RankStats) string { return jumpshot.FormatStats(f, stats) }

// CategoryFraction reports the share of state time the named category
// occupies in [t0, t1].
func CategoryFraction(f *File, name string, t0, t1 float64) float64 {
	return jumpshot.CategoryFraction(f, name, t0, t1)
}

// BusyOverlapRatio quantifies how parallel a set of ranks really ran:
// mean pairwise overlap of busy (computing, non-blocked) time over mean
// busy time. ~1 = parallel workers, ~0 = serialized (the paper's
// instance A pattern).
func BusyOverlapRatio(f *File, ranks []int, t0, t1 float64) float64 {
	return jumpshot.BusyOverlapRatio(f, ranks, t0, t1)
}

// PathSeg is one link of the critical path.
type PathSeg = jumpshot.PathSeg

// CriticalPath extracts the compute/message chain that determined the
// program's wall-clock time.
func CriticalPath(f *File) []PathSeg { return jumpshot.CriticalPath(f) }

// FormatCriticalPath renders the path with per-segment shares.
func FormatCriticalPath(path []PathSeg) string { return jumpshot.FormatCriticalPath(path) }

// WaitEdge is one cell of the who-waits-on-whom matrix.
type WaitEdge = jumpshot.WaitEdge

// WaitMatrix attributes every blocked input operation to the rank whose
// message resolved it — the debugging question behind the paper's Figs.
// 4–5, as a table instead of a picture.
func WaitMatrix(f *File, t0, t1 float64) []WaitEdge { return jumpshot.WaitMatrix(f, t0, t1) }

// FormatWaitMatrix renders wait edges as a table, longest waits first.
func FormatWaitMatrix(edges []WaitEdge) string { return jumpshot.FormatWaitMatrix(edges) }

// Search scans the log for drawables matching opts.
func Search(f *File, opts SearchOptions) []Hit { return jumpshot.Search(f, opts) }

// FormatHits renders search hits as a text listing.
func FormatHits(hits []Hit) string { return jumpshot.FormatHits(hits) }

// Pipeline runs the whole chain for one program run: convert the CLOG-2 at
// clogPath, optionally persist the SLOG-2, render an SVG, and return the
// conversion report. Empty output paths skip that stage.
func Pipeline(clogPath, slogPath, svgPath string, opts ConvertOptions, v View) (*File, *Report, error) {
	f, rep, err := ConvertFile(clogPath, opts)
	if err != nil {
		return nil, nil, err
	}
	if slogPath != "" {
		if err := WriteSLOG2(slogPath, f); err != nil {
			return nil, nil, fmt.Errorf("vis: writing %s: %w", slogPath, err)
		}
	}
	if svgPath != "" {
		if err := RenderSVGFile(svgPath, f, v); err != nil {
			return nil, nil, fmt.Errorf("vis: writing %s: %w", svgPath, err)
		}
	}
	return f, rep, nil
}

// Annotations turns an analyzer verdict report into timeline markers:
// rank-scoped findings become flags on their rank's timeline at the
// finding's timestamp, unscoped ones become banner chips. Feed the
// result to View.Annotations to draw findings where the paper's users
// look.
func Annotations(rep *analyze.Report) []Annotation {
	var out []Annotation
	for _, f := range rep.Findings {
		label := f.Detector
		if f.Channel >= 0 {
			label = fmt.Sprintf("%s ch%d", f.Detector, f.Channel)
		}
		out = append(out, Annotation{
			Rank:   f.Rank,
			Time:   f.Time,
			Label:  label,
			Detail: f.Detail,
		})
	}
	return out
}

// Profile is the post-run statistics report computed from a CLOG-2
// stream (see stats.ComputeProfile): per-channel and per-rank message
// totals, per-state duration quantiles, busy-vs-blocked breakdown.
type Profile = stats.Profile

// ComputeProfileFile profiles the CLOG-2 file at path.
func ComputeProfileFile(path string) (*Profile, error) { return stats.ComputeProfileFile(path) }

// ProfilePath derives the profile sidecar name for an SLOG-2 output
// path: "run.slog2" → "run.profile.json".
func ProfilePath(slogPath string) string {
	return strings.TrimSuffix(slogPath, ".slog2") + ".profile.json"
}

// PipelineWithProfile is Pipeline plus the observability hook: after a
// successful conversion it recomputes a stats.Profile from the same
// CLOG-2 and drops it as JSON next to the SLOG-2 (ProfilePath). An empty
// slogPath writes no profile, matching Pipeline's skip semantics.
func PipelineWithProfile(clogPath, slogPath, svgPath string, opts ConvertOptions, v View) (*File, *Report, *Profile, error) {
	f, rep, err := Pipeline(clogPath, slogPath, svgPath, opts, v)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := ComputeProfileFile(clogPath)
	if err != nil {
		return nil, nil, nil, err
	}
	if slogPath != "" {
		if err := p.WriteJSON(ProfilePath(slogPath)); err != nil {
			return nil, nil, nil, fmt.Errorf("vis: writing profile: %w", err)
		}
	}
	return f, rep, p, nil
}

// PipelineToRepo converts the CLOG-2 at clogPath and registers the run
// in a pilot-serve trace repository: repoDir/<id>.slog2 plus the
// repoDir/<id>.profile.json sidecar, and — so the service can answer
// windowed queries without streaming the whole raw log — a copy of the
// raw CLOG-2 as repoDir/<id>.clog2, which carries its own block table. The
// id must be a valid pilot-serve trace id (no separators, no leading dot).
// Raw-log registration is best-effort: a failure copying never fails the
// registration, it only costs the service its windowed routes.
func PipelineToRepo(clogPath, repoDir, id string, opts ConvertOptions) (*File, *Report, *Profile, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") || id[0] == '.' {
		return nil, nil, nil, fmt.Errorf("vis: invalid repository trace id %q", id)
	}
	info, err := os.Stat(repoDir)
	if err != nil {
		return nil, nil, nil, err
	}
	if !info.IsDir() {
		return nil, nil, nil, fmt.Errorf("vis: %s is not a directory", repoDir)
	}
	f, rep, p, err := PipelineWithProfile(clogPath, filepath.Join(repoDir, id+".slog2"), "", opts, View{})
	if err != nil {
		return nil, nil, nil, err
	}
	_ = registerRawLog(clogPath, filepath.Join(repoDir, id+".clog2"))
	return f, rep, p, nil
}

// registerRawLog copies the raw CLOG-2 to dst through a temporary file
// renamed over it, so a copy that fails leaves a log registered before in
// place, and a reader never sees a torn one.
func registerRawLog(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return clog2.WriteFileAtomic(dst, func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}
