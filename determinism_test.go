// The acceptance gate for the parallel conversion pipeline: over the real
// example logs — the lab2 run, the thumbnail pipeline, and the collisions
// workload — conversion at any worker count must produce output
// byte-identical to the sequential (workers=1) conversion, warnings
// included.
package repro_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clog2"
	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/slog2"
	"repro/internal/thumbnail"
	"repro/vis"
)

// convertBytes converts clog at the given worker count and returns the
// serialized SLOG-2 bytes plus the conversion report.
func convertBytes(t *testing.T, clog string, workers int) ([]byte, *slog2.Report) {
	t.Helper()
	f, rep, err := vis.ConvertFile(clog, vis.ConvertOptions{Workers: workers})
	if err != nil {
		t.Fatalf("convert %s with %d workers: %v", clog, workers, err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants (%d workers): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := slog2.Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// checkByteIdentical converts the log sequentially and at several worker
// counts and requires identical bytes and identical warning streams.
func checkByteIdentical(t *testing.T, clog string) {
	t.Helper()
	ref, refRep := convertBytes(t, clog, 1)
	if len(ref) == 0 {
		t.Fatal("empty SLOG-2 output")
	}
	for _, workers := range []int{2, 4, 8} {
		got, rep := convertBytes(t, clog, workers)
		if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: SLOG-2 bytes differ from sequential (%d vs %d bytes)",
				workers, len(got), len(ref))
		}
		if len(rep.Warnings) != len(refRep.Warnings) {
			t.Errorf("workers=%d: %d warnings, sequential had %d",
				workers, len(rep.Warnings), len(refRep.Warnings))
			continue
		}
		for i := range rep.Warnings {
			if rep.Warnings[i] != refRep.Warnings[i] {
				t.Errorf("workers=%d: warning %d = %q, sequential %q",
					workers, i, rep.Warnings[i], refRep.Warnings[i])
			}
		}
	}
}

func TestConvertByteIdenticalLab2(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "lab2.clog2")
	cfg := lab2.Config{W: 5, NUM: 10000, Seed: 3}
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = clog
	if _, err := lab2.Run(cfg); err != nil {
		t.Fatal(err)
	}
	checkByteIdentical(t, clog)
}

func TestConvertByteIdenticalThumbnail(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "thumbnail.clog2")
	cfg := thumbnail.Config{
		Workers:   9,
		NumImages: 40,
		ImageW:    96,
		ImageH:    64,
		Seed:      3,
		Core: core.Config{
			Services:     "j",
			CheckLevel:   3,
			JumpshotPath: clog,
		},
	}
	if _, err := thumbnail.Run(cfg); err != nil {
		t.Fatal(err)
	}
	checkByteIdentical(t, clog)
}

// With virtual clocks pinned, the whole logging path — cargo builders,
// chunked record arenas, the block-chunk encoder, clock sync, and the
// rank-0 merge — must produce byte-identical CLOG-2 and SLOG-2 output
// run after run. This is the in-tree form of the acceptance gate that
// the builder rewrite left the log bytes unchanged.
func TestLogBytesDeterministicAcrossRuns(t *testing.T) {
	runOnce := func(clog string) []byte {
		t.Helper()
		cfg := lab2.Config{W: 4, NUM: 5000, Seed: 7}
		cfg.Core.Services = "j"
		cfg.Core.JumpshotPath = clog
		// One Manual clock per rank: every timestamp is reproducible, so
		// any byte difference between runs is a logging-path bug, not
		// scheduling noise.
		cfg.Core.Clocks = make([]clock.Source, 6)
		for i := range cfg.Core.Clocks {
			cfg.Core.Clocks[i] = clock.NewManual(float64(i))
		}
		if _, err := lab2.Run(cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(clog)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	dir := t.TempDir()
	a := runOnce(filepath.Join(dir, "a.clog2"))
	b := runOnce(filepath.Join(dir, "b.clog2"))
	if !bytes.Equal(a, b) {
		t.Errorf("CLOG-2 bytes differ between identical runs (%d vs %d bytes)", len(a), len(b))
	}
	sa, _ := convertBytes(t, filepath.Join(dir, "a.clog2"), 1)
	sb, _ := convertBytes(t, filepath.Join(dir, "b.clog2"), 1)
	if !bytes.Equal(sa, sb) {
		t.Errorf("SLOG-2 bytes differ between identical runs")
	}
}

// Every cargo the builders emit on a real run must still follow the
// legacy Sprintf shapes the popups and tests rely on — the end-to-end
// check that no call-site migration changed the cargo text format.
func TestCargoShapesOnRealRun(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "lab2.clog2")
	cfg := lab2.Config{W: 3, NUM: 2000, Seed: 5}
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = clog
	if _, err := lab2.Run(cfg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(clog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shapes := []*regexp.Regexp{
		regexp.MustCompile(`^$`),
		regexp.MustCompile(`^phase: configuration$`),
		regexp.MustCompile(`^proc: \S+( idx: -?\d+)?$`),
		regexp.MustCompile(`^status: -?\d+$`),
		regexp.MustCompile(`^line: \S+\.go:\d+( proc: \S+)?( idx: -?\d+| bund: \S+)?`),
		regexp.MustCompile(`^chan: \S+ (msg|part): \d+/\d+$`),
		regexp.MustCompile(`^chan: \S+ (val|len|has|first)`),
		regexp.MustCompile(`^t: -?\d+\.\d{6} line: \S+`),
		regexp.MustCompile(`^ready: -?\d+$`),
		regexp.MustCompile(`^bund: \S+ ready: -?\d+ line: `),
		regexp.MustCompile(`^mpe: synthetic end`),
	}
	checked := 0
	br, err := clog2.NewBlockReader(f)
	if err == nil {
		err = br.Each(func(run clog2.Block) error {
			for _, rec := range run.Records {
				if rec.Type != clog2.RecCargoEvt {
					continue
				}
				cargo := rec.CargoText()
				ok := false
				for _, re := range shapes {
					if re.MatchString(cargo) {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("cargo %q matches no known call-site shape", cargo)
				}
				checked++
			}
			return nil
		})
	}
	if err != nil {
		t.Fatalf("read clog: %v", err)
	}
	if checked < 50 {
		t.Fatalf("only %d cargo records checked; lab2 run looks wrong", checked)
	}
}

func TestConvertByteIdenticalCollisions(t *testing.T) {
	clog := filepath.Join(t.TempDir(), "collisions.clog2")
	cfg := collisions.Config{
		Workers: 4, Rows: 6000, Seed: 3,
		QueryCost: 10, QuerySleepPerRow: time.Microsecond,
	}
	cfg.Core.Services = "j"
	cfg.Core.JumpshotPath = clog
	if _, err := collisions.RunFixed(cfg); err != nil {
		t.Fatal(err)
	}
	checkByteIdentical(t, clog)
}
