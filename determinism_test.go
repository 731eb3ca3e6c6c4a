// The acceptance gate for the parallel conversion pipeline: over the real
// example logs — the lab2 run, the thumbnail pipeline, and the collisions
// workload — conversion at any worker count must produce output
// byte-identical to the sequential (workers=1) conversion, warnings
// included.
package repro_test

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/analyze"
	"repro/internal/clock"
	"repro/internal/clog2"
	"repro/internal/collisions"
	"repro/internal/core"
	"repro/internal/lab2"
	"repro/internal/slog2"
	"repro/internal/stats"
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

// Every reader of a log file reads it rank by rank, on as many workers as
// GOMAXPROCS (the converter: ConvertOptions.Workers), and merges the ranks
// in rank order, so nothing it answers depends on the worker count: over
// every committed log and a generated one whose ranks' blocks interleave,
// the SLOG-2 bytes and warnings, the profile, the verdict, five windowed
// profiles and verdicts (through the block table) and the diffs of the log
// against itself and against a copy with one op changed are byte-identical
// at 1, 2 and 8 workers. The converter, the profile and the verdict of
// the log read as a stream, in one pass, are the same bytes.
func TestEveryReaderIsByteIdenticalAtAnyWorkerCount(t *testing.T) {
	dir := t.TempDir()
	logs := map[string]string{"skewed": filepath.Join("internal", "mpe", "testdata", "skewed.clog2")}
	for _, name := range []string{"lab2", "thumbnail", "collisions"} {
		logs[name] = filepath.Join("testdata", "golden", name+".clog2")
	}
	logs["interleaved"] = filepath.Join(dir, "interleaved.clog2")
	if err := os.WriteFile(logs["interleaved"], scanCLOG(t, 50_000), 0o644); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, path := range logs {
		planted := filepath.Join(dir, name+"-planted.clog2")
		plantDivergence(t, path, planted)
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(workers)
			got := readerOutputs(t, path, planted, workers, true)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: what the readers answer at %d workers differs from 1 worker's", name, workers)
			}
		}
		if !bytes.Equal(wholeOutputs(t, path, 1, true).Bytes(), wholeOutputs(t, path, 1, false).Bytes()) {
			t.Errorf("%s: what the converter, the profile and the verdict answer of a stream differs from the file's", name)
		}
	}
}

// outputs gathers what readers answer about a log, as bytes.
type outputs struct {
	t    *testing.T
	path string
	bytes.Buffer
}

// add appends v's JSON, or fails the test with err.
func (o *outputs) add(what string, v interface{ JSON() ([]byte, error) }, err error) {
	o.t.Helper()
	var data []byte
	if err == nil {
		data, err = v.JSON()
	}
	if err != nil {
		o.t.Fatalf("%s of %s: %v", what, o.path, err)
	}
	o.Write(data)
}

// wholeOutputs is what the converter, the profile and the verdict answer
// about the whole log at path, as bytes: the SLOG-2 file and its
// warnings, the profile's JSON and the verdict's. The log is read as a
// file is, rank by rank through its table at the given worker count, or,
// with stream, in one pass as a reader that cannot seek is.
func wholeOutputs(t *testing.T, path string, workers int, stream bool) *outputs {
	t.Helper()
	out := &outputs{t: t, path: path}
	if !stream {
		slog, rep := convertBytes(t, path, workers)
		out.Write(slog)
		for _, w := range rep.Warnings {
			out.WriteString(w + "\n")
		}
		prof, err := stats.ComputeProfileFile(path)
		out.add("profile", prof, err)
		verdict, err := analyze.AnalyzeFile(path, analyze.Options{})
		out.add("verdict", verdict, err)
		return out
	}
	read := func() io.Reader {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return iotest.HalfReader(bytes.NewReader(data))
	}
	f, rep, err := slog2.ConvertReader(read(), slog2.ConvertOptions{Workers: workers})
	if err != nil {
		t.Fatalf("convert %s as a stream: %v", path, err)
	}
	if err := slog2.Write(out, f); err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Warnings {
		out.WriteString(w + "\n")
	}
	prof, err := stats.ComputeProfile(read())
	out.add("profile", prof, err)
	verdict, err := analyze.Analyze(read(), analyze.Options{})
	out.add("verdict", verdict, err)
	return out
}

// readerOutputs is everything the post-run readers answer about the log
// at path, at the given worker count, as bytes: wholeOutputs', then the
// windows' and the diffs'. With tableUsed the windows must say the log's
// own block table answered them; without, what they say of it is left
// out.
func readerOutputs(t *testing.T, path, planted string, workers int, tableUsed bool) []byte {
	t.Helper()
	out := wholeOutputs(t, path, workers, false)
	add := out.add
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	table, err := clog2.ScanTable(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, m := range table.Blocks {
		if m.Records > m.Defs {
			lo, hi = min(lo, m.TMin), max(hi, m.TMax)
		}
	}
	for i := range 5 {
		t0 := lo + float64(i)/5*(hi-lo)
		t1 := t0 + (hi-lo)/20
		p, used, err := stats.ComputeProfileFileWindowed(path, t0, t1)
		if err == nil && tableUsed && !used {
			t.Errorf("%s: the window [%g,%g] was not answered through the table", path, t0, t1)
		}
		add("windowed profile", p, err)
		v, err := analyze.AnalyzeFileWindowed(path, t0, t1)
		if err == nil && tableUsed && !v.UsedIndex {
			t.Errorf("%s: the windowed verdict [%g,%g] does not report the table used", path, t0, t1)
		}
		if err == nil && !tableUsed {
			v.UsedIndex = false
		}
		add("windowed verdict", v, err)
	}
	self, err := analyze.DiffFiles(path, path, analyze.DiffOptions{})
	if err == nil && !self.Identical {
		t.Errorf("%s differs from itself: %+v", path, self.First)
	}
	add("self-diff", self, err)
	diff, err := analyze.DiffFiles(path, planted, analyze.DiffOptions{})
	if err == nil && diff.Identical {
		t.Errorf("%s: the planted divergence was not found", path)
	}
	add("planted diff", diff, err)
	return out.Bytes()
}

// A block table that validates and then lies about one rank's block,
// which the walk reads after other ranks', sends every reader that reads
// the block back to the table a scan makes, at 2 workers: the converter,
// the profile, the verdict, the windows and the diffs answer exactly what
// they answer of the same log without a table.
func TestEveryReaderDegradesWhenTheTableLies(t *testing.T) {
	data := scanCLOG(t, 50_000)
	table, err := clog2.ReadTable(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	lied := *table
	lied.Blocks = slices.Clone(table.Blocks)
	for i := len(lied.Blocks) - 1; i >= 0; i-- {
		if lied.Blocks[i].Rank == 5 {
			lied.Blocks[i].Records--
			break
		}
	}
	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bare := write("run.clog2", data[:table.LogSize()])
	lying := write("run.clog2", clog2.AppendTable(slices.Clone(data[:table.LogSize()]), &lied))
	if _, err := clog2.LoadTable(lying); err != nil {
		t.Fatalf("the lying table does not validate: %v", err)
	}
	planted := filepath.Join(t.TempDir(), "planted.clog2")
	plantDivergence(t, bare, planted)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if !bytes.Equal(readerOutputs(t, lying, planted, 2, false), readerOutputs(t, bare, planted, 2, false)) {
		t.Error("under a lying table the readers answer otherwise than without one")
	}
}

// plantDivergence writes the log at path to planted with one op changed:
// the etype of the middle bare or cargo event of the rank of its middle
// block.
func plantDivergence(t *testing.T, path, planted string) {
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
	var blocks []clog2.Block
	for {
		b, err := br.NextReuse(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	var events []*clog2.Record
	for _, b := range blocks {
		if b.Rank != blocks[len(blocks)/2].Rank {
			continue
		}
		for i := range b.Records {
			if r := &b.Records[i]; r.Type == clog2.RecBareEvt || r.Type == clog2.RecCargoEvt {
				events = append(events, r)
			}
		}
	}
	if len(events) == 0 {
		t.Fatalf("%s: no event to change in rank %d", path, blocks[len(blocks)/2].Rank)
	}
	events[len(events)/2].ID ^= 1
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, br.NumRanks())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := w.WriteBlock(b.Rank, b.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planted, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
