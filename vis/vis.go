// Package vis converts and registers runs of the log-visualization
// pipeline, the paper's CLOG-2 → SLOG-2 → Jumpshot display chain: a
// CLOG-2 file to an SLOG-2 one, the whole chain for one run, and a run's
// registration in a pilot-serve repository. Drawing and analysis are
// internal/jumpshot's, reading SLOG-2 is internal/slog2's:
//
//	sf, rep, err := vis.ConvertFile("pilot.clog2", vis.ConvertOptions{})
//	err = vis.RenderSVGFile("run.svg", sf, vis.View{Title: "my run"})
//	fmt.Print(jumpshot.FormatLegend(jumpshot.Legend(sf, sf.Start, sf.End)))
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
	// count of the per-rank walk and the frame-tree build; output is
	// byte-identical at any worker count).
	ConvertOptions = slog2.ConvertOptions
	// Report carries conversion diagnostics (Equal Drawables and friends).
	Report = slog2.Report
	// View controls timeline rendering (viewport, size, previews).
	View = jumpshot.View
	// Annotation is one verdict marker overlaid on a rendered timeline.
	Annotation = jumpshot.Annotation
)

// ConvertFile converts the CLOG-2 file at path rank by rank
// (slog2.ConvertReader): up to opts.Workers workers (0 = GOMAXPROCS) each
// take whole ranks, read one block at a time through the log's block table
// (the table a scan makes when the log has none), and pair a rank's states
// as its blocks arrive, so the raw log is never fully materialized; the
// frame-tree build hands subtrees to as many workers. The output is the
// same at every worker count.
func ConvertFile(path string, opts ConvertOptions) (*File, *Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	in, err := clog2.FileInput(f)
	if err != nil {
		return nil, nil, err
	}
	return slog2.ConvertInput(in, opts)
}

// WriteSLOG2 serialises an SLOG-2 file to path.
func WriteSLOG2(path string, f *File) error { return slog2.WriteFile(path, f) }

// RenderSVGFile draws the log Jumpshot-style as an SVG document at path.
func RenderSVGFile(path string, f *File, v View) error {
	return os.WriteFile(path, jumpshot.AppendSVG(nil, f, v), 0o644)
}

// RenderHTMLFile writes the self-contained interactive page
// (jumpshot.RenderHTML: wheel zoom, drag scroll, hover popups, legend
// table) to path.
func RenderHTMLFile(path string, f *File, v View) error {
	return os.WriteFile(path, []byte(jumpshot.RenderHTML(f, v)), 0o644)
}

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

// ProfilePath derives the profile file name for an SLOG-2 output path:
// "run.slog2" → "run.profile.json".
func ProfilePath(slogPath string) string {
	return strings.TrimSuffix(slogPath, ".slog2") + ".profile.json"
}

// PipelineToRepo registers the run whose CLOG-2 is at clogPath in a
// pilot-serve trace repository. It converts the log, copies it to
// repoDir/<id>.clog2 (it carries its own block table, and every profile
// and verdict the service answers is computed from it), and only then
// writes repoDir/<id>.slog2 and the log's profile as
// repoDir/<id>.profile.json (the bytes pilot-profile -json prints, which
// the service never reads). A log that does not convert registers
// nothing, and a failed copy fails the registration before the .slog2 is
// written, so every trace registered here can answer its profile. An id
// ValidTraceID refuses is refused before the log is read.
func PipelineToRepo(clogPath, repoDir, id string, opts ConvertOptions) (*File, *Report, *Profile, error) {
	if !ValidTraceID(id) {
		return nil, nil, nil, fmt.Errorf("vis: invalid repository trace id %q", id)
	}
	info, err := os.Stat(repoDir)
	if err != nil {
		return nil, nil, nil, err
	}
	if !info.IsDir() {
		return nil, nil, nil, fmt.Errorf("vis: %s is not a directory", repoDir)
	}
	f, rep, err := ConvertFile(clogPath, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := registerRawLog(clogPath, filepath.Join(repoDir, id+".clog2")); err != nil {
		return nil, nil, nil, fmt.Errorf("vis: registering the raw log: %w", err)
	}
	slogPath := filepath.Join(repoDir, id+".slog2")
	if err := WriteSLOG2(slogPath, f); err != nil {
		return nil, nil, nil, fmt.Errorf("vis: writing %s: %w", slogPath, err)
	}
	p, err := ComputeProfileFile(clogPath)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := p.WriteJSON(ProfilePath(slogPath)); err != nil {
		return nil, nil, nil, fmt.Errorf("vis: writing profile: %w", err)
	}
	return f, rep, p, nil
}

// ValidTraceID is the one rule for a trace id, which names the files of a
// trace in a pilot-serve repository (<id>.slog2, <id>.clog2): 1 to 231
// bytes, no path separator, no "..", no leading dot, so that no id reaches
// outside the repository directory and every name PipelineToRepo makes of
// it fits the common 255-byte limit. The longest is the temporary file
// clog2.WriteFileAtomic writes <id>.clog2 and <id>.slog2 through, 24 bytes
// past the id: ".clog2" (6), ".tmp-" (5) and a uint64 in base 36 (up to 13
// digits); 255 - 24 = 231. PipelineToRepo registers and the service answers
// only the ids it accepts.
func ValidTraceID(id string) bool {
	return id != "" && len(id) <= 231 && !strings.ContainsAny(id, "/\\") && !strings.Contains(id, "..") && id[0] != '.'
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
