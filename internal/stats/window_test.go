package stats

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/clog2"
	"repro/internal/idx"
)

var goldenLogs = []string{"lab2", "collisions", "thumbnail"}

// copyGolden stages one golden CLOG-2 in a temp dir (sidecar games must
// not touch the committed files).
func copyGolden(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("..", "..", "testdata", "golden", name+".clog2")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(t.TempDir(), name+".clog2")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// computeProfileScan is the reference answer: the windowed profile from
// a plain reading of every block, with no sidecar consulted.
func computeProfileScan(path string, t0, t1 float64) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ComputeProfileWindowed(f, t0, t1)
}

func mustJSON(t *testing.T, p *Profile) []byte {
	t.Helper()
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// windowsFor derives a battery of windows from a file's own time span.
func windowsFor(t *testing.T, path string) [][2]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	br, err := clog2.NewBlockReader(f)
	if err != nil {
		t.Fatal(err)
	}
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			switch r.Type {
			case clog2.RecStateDef, clog2.RecEventDef, clog2.RecConstDef, clog2.RecSrcLoc:
				continue
			}
			tmin = math.Min(tmin, r.Time)
			tmax = math.Max(tmax, r.Time)
		}
	}
	if tmin > tmax {
		tmin, tmax = 0, 0
	}
	mid := tmin + (tmax-tmin)/2
	return [][2]float64{
		{math.Inf(-1), math.Inf(1)},
		{tmin, mid},
		{mid, tmax},
		{tmin + (tmax-tmin)/4, tmin + 3*(tmax-tmin)/4},
		{tmax + 1, tmax + 2}, // empty
	}
}

// The tentpole equality contract on real logs: for every golden and
// every window, the indexed profile is byte-identical to the full scan.
func TestWindowedIndexedEqualsScanOnGoldens(t *testing.T) {
	for _, name := range goldenLogs {
		t.Run(name, func(t *testing.T) {
			path := copyGolden(t, name)
			ix, err := idx.BuildFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.WriteFileFor(path, ix); err != nil {
				t.Fatal(err)
			}
			for _, w := range windowsFor(t, path) {
				p, used, err := ComputeProfileFileWindowed(path, w[0], w[1])
				if err != nil {
					t.Fatalf("window %v: %v", w, err)
				}
				if !used {
					t.Fatalf("window %v: valid sidecar was not used", w)
				}
				scan, err := computeProfileScan(path, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if a, b := mustJSON(t, p), mustJSON(t, scan); !bytes.Equal(a, b) {
					t.Errorf("window %v: indexed != scan\nindexed: %s\nscan:    %s", w, a, b)
				}
			}
		})
	}
}

// Every way a sidecar can go bad must degrade to the full scan with an
// identical answer — never an error, never a wrong profile.
func TestWindowedDegradation(t *testing.T) {
	sabotages := []struct {
		name string
		do   func(t *testing.T, clogPath string)
	}{
		{"missing", func(t *testing.T, p string) {
			os.Remove(idx.SidecarPath(p))
		}},
		{"stale", func(t *testing.T, p string) {
			f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"corrupt", func(t *testing.T, p string) {
			side := idx.SidecarPath(p)
			data, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/3] ^= 0x80
			if err := os.WriteFile(side, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, p string) {
			side := idx.SidecarPath(p)
			data, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(side, data[:len(data)*2/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// What CLOGIDX-01 was: the same head and block table, then a
		// channel and an etype table (empty here), under a valid CRC.
		{"previous version", func(t *testing.T, p string) {
			side := idx.SidecarPath(p)
			data, err := os.ReadFile(side)
			if err != nil {
				t.Fatal(err)
			}
			old := append([]byte("CLOGIDX-01\x01\x00\x00\x00"), data[len(idx.Magic)+4:len(data)-4]...)
			old = append(old, make([]byte, 4+4)...)
			old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
			if err := os.WriteFile(side, old, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// A structurally valid sidecar that lies about the file: Load
		// accepts it, the mid-scan block check catches it, and the
		// consumer silently re-answers with the full scan.
		{"lying", func(t *testing.T, p string) {
			ix, err := idx.Load(p)
			if err != nil {
				t.Fatal(err)
			}
			swapped := false
			for i := 1; i < len(ix.Blocks); i++ {
				if ix.Blocks[i].Rank != ix.Blocks[0].Rank {
					ix.Blocks[0].Rank, ix.Blocks[i].Rank = ix.Blocks[i].Rank, ix.Blocks[0].Rank
					swapped = true
					break
				}
			}
			if !swapped {
				t.Skip("single-rank log: no ranks to swap")
			}
			if err := idx.WriteFileFor(p, ix); err != nil {
				t.Fatal(err)
			}
			if _, err := idx.Load(p); err != nil {
				t.Fatalf("lying sidecar should pass validation, got %v", err)
			}
		}},
	}
	for _, name := range goldenLogs {
		for _, sb := range sabotages {
			t.Run(name+"/"+sb.name, func(t *testing.T) {
				path := copyGolden(t, name)
				ix, err := idx.BuildFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := idx.WriteFileFor(path, ix); err != nil {
					t.Fatal(err)
				}
				sb.do(t, path)
				w := windowsFor(t, path)[1] // a real, non-trivial window
				p, used, err := ComputeProfileFileWindowed(path, w[0], w[1])
				if err != nil {
					t.Fatalf("degraded profile errored: %v", err)
				}
				if used {
					t.Error("a sabotaged sidecar was reported as used")
				}
				scan, err := computeProfileScan(path, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if a, b := mustJSON(t, p), mustJSON(t, scan); !bytes.Equal(a, b) {
					t.Errorf("degraded answer differs from the full scan")
				}
			})
		}
	}
}

// A sidecar that lies about a block of several runs, by one record either
// way or in its rank, is found out after the profiler has folded some of
// them: Walk starts it over and the answer is the full scan's, byte for
// byte.
func TestWindowedLyingLongBlock(t *testing.T) {
	long := []clog2.Record{stateDef(1, 2, 3, "PI_Read")}
	for i := 0; len(long) < 10_000; i++ {
		long = append(long, bare(0, float64(i)*1e-3, int32(2+i%2)))
	}
	raw := writeTestLog(t, 2, map[int32][]clog2.Record{0: long, 1: {bare(1, 0.5, 2), bare(1, 0.7, 3)}})
	for name, lie := range map[string]func(ix *idx.Index){
		"one record fewer": func(ix *idx.Index) { ix.Blocks[0].Records--; ix.TotalRecords-- },
		"one record more":  func(ix *idx.Index) { ix.Blocks[0].Records++; ix.TotalRecords++ },
		"wrong rank":       func(ix *idx.Index) { ix.Blocks[0].Rank = 1 },
	} {
		path := filepath.Join(t.TempDir(), "long.clog2")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := idx.Rebuild(path)
		if err != nil {
			t.Fatal(err)
		}
		lie(ix)
		if err := idx.WriteFileFor(path, ix); err != nil {
			t.Fatal(err)
		}
		p, used, err := ComputeProfileFileWindowed(path, 0.25, 7.5)
		if err != nil || used {
			t.Fatalf("%s: indexed %v, %v; want the fallback", name, used, err)
		}
		scan, err := computeProfileScan(path, 0.25, 7.5)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := mustJSON(t, p), mustJSON(t, scan); !bytes.Equal(a, b) {
			t.Errorf("%s: the answer differs from the full scan\ngot:  %s\nscan: %s", name, a, b)
		}
	}
}

// The unbounded window is the plain profile: same answer, no Window
// stanza in the JSON.
func TestWindowedUnboundedIsPlainProfile(t *testing.T) {
	path := copyGolden(t, "lab2")
	plain, err := ComputeProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, used, err := ComputeProfileFileWindowed(path, math.Inf(-1), math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if used {
		t.Error("no sidecar exists, yet the index was reportedly used")
	}
	if p.Window != nil {
		t.Errorf("unbounded profile has Window = %+v", p.Window)
	}
	if a, b := mustJSON(t, p), mustJSON(t, plain); !bytes.Equal(a, b) {
		t.Error("unbounded windowed profile differs from the plain profile")
	}
}

// Windowed semantics on a known log: defs always apply, out-of-window
// activity vanishes, and a state end whose start precedes the window
// counts as unpaired rather than inventing a duration.
func TestWindowSemantics(t *testing.T) {
	raw := writeTestLog(t, 2, map[int32][]clog2.Record{
		0: {
			stateDef(1, 2, 3, "PI_Read"),
			bare(0, 0.1, 2),                       // starts before the window
			bare(0, 0.5, 3),                       // ends inside it: unpaired
			msg(0, 0.6, clog2.DirSend, 1, 7, 100), // inside
			msg(0, 2.0, clog2.DirSend, 1, 7, 999), // outside
		},
		1: {
			msg(1, 0.65, clog2.DirRecv, 0, 7, 100), // inside
		},
	})
	p, err := ComputeProfileWindowed(bytes.NewReader(raw), 0.4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Window == nil || p.Window.T0 == nil || *p.Window.T0 != 0.4 ||
		p.Window.T1 == nil || *p.Window.T1 != 1.0 {
		t.Fatalf("window stanza = %+v", p.Window)
	}
	if p.Totals.Sends != 1 || p.Totals.SendBytes != 100 {
		t.Errorf("out-of-window message leaked into totals: %+v", p.Totals)
	}
	if p.Unpaired != 1 {
		t.Errorf("unpaired = %d, want 1 (end whose start precedes the window)", p.Unpaired)
	}
	if len(p.States) != 0 {
		t.Errorf("no state completes inside the window, got %+v", p.States)
	}
}
