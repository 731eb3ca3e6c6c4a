package gen

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analyze"
	"repro/internal/idx"
	"repro/internal/stats"
	"repro/vis"
)

// Every stage of the toolchain must accept the generated log, and the
// converter must find exactly the drawables the generator says it wrote.
func TestEveryStageAcceptsGeneratedLog(t *testing.T) {
	dir := t.TempDir()
	cfg := ForSize(7, 1<<20)
	path := filepath.Join(dir, "a.clog2")
	counts, err := WriteFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != counts.Bytes {
		t.Errorf("file is %d bytes, generator counted %d", info.Size(), counts.Bytes)
	}
	if d := math.Abs(float64(counts.Bytes)-(1<<20)) / (1 << 20); d > 0.05 {
		t.Errorf("ForSize(1 MiB) produced %d bytes", counts.Bytes)
	}

	_, rep, err := vis.ConvertFile(path, vis.ConvertOptions{})
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if rep.States != counts.States || rep.Arrows != counts.Arrows || rep.Events != counts.Events {
		t.Errorf("converter found %d states, %d arrows, %d events; generator wrote %d, %d, %d",
			rep.States, rep.Arrows, rep.Events, counts.States, counts.Arrows, counts.Events)
	}
	if rep.NestingErrors != 0 || rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
		t.Errorf("converter reports %d nesting errors, %d unmatched sends, %d unmatched receives: %v",
			rep.NestingErrors, rep.UnmatchedSends, rep.UnmatchedRecvs, rep.Warnings)
	}

	prof, err := stats.ComputeProfileFile(path)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	if prof.Totals.Records != counts.Ops {
		t.Errorf("profile counted %d records, generator wrote %d timed records", prof.Totals.Records, counts.Ops)
	}

	ix, err := idx.BuildFile(path)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	if ix.TotalRecords != counts.Records {
		t.Errorf("index counted %d records, generator wrote %d", ix.TotalRecords, counts.Records)
	}
	if err := idx.WriteFileFor(path, ix); err != nil {
		t.Fatal(err)
	}
	span := counts.End - counts.Start
	t0, t1 := counts.Start+0.4*span, counts.Start+0.41*span
	indexed, used, err := stats.ComputeProfileFileWindowed(path, t0, t1)
	if err != nil || !used {
		t.Fatalf("windowed profile: used index %v, err %v", used, err)
	}
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	scanned, err := stats.ComputeProfileWindowed(fh, t0, t1)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := indexed.JSON()
	b, _ := scanned.JSON()
	if !bytes.Equal(a, b) {
		t.Error("indexed and scanned windowed profiles differ")
	}

	if _, err := analyze.AnalyzeFile(path, analyze.Options{}); err != nil {
		t.Fatalf("analyze: %v", err)
	}

	planted := filepath.Join(dir, "b.clog2")
	pcounts, div, err := WritePlantedFile(planted, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pcounts != counts {
		t.Errorf("planted log counts %+v differ from the original's %+v", pcounts, counts)
	}
	diff, err := analyze.DiffFiles(path, planted, analyze.DiffOptions{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if diff.Identical || len(diff.Divergences) != 1 || diff.First.Rank != div.Rank || diff.First.Op != div.Op {
		t.Errorf("diff found %+v, planted %+v", diff.First, div)
	}
	self, err := analyze.DiffFiles(path, path, analyze.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !self.Identical {
		t.Error("a log differs from itself")
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	cfg := Config{Seed: 3, Rounds: 20}
	var a, b, c bytes.Buffer
	if _, _, err := write(&a, cfg, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := write(&b, cfg, false); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 4
	if _, _, err := write(&c, cfg, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("the same seed gave different logs")
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Error("different seeds gave the same log")
	}
}
