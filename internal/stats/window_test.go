package stats

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/clog2"
)

var goldenLogs = []string{"lab2", "collisions", "thumbnail"}

// copyGolden stages one golden CLOG-2 in a temp dir (games with its
// table must not touch the committed files).
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

// rewrite replaces the log at p by what edit makes of its bytes, given
// the table it carries.
func rewrite(t *testing.T, p string, edit func(data []byte, table *clog2.Table) []byte) {
	t.Helper()
	table, err := clog2.LoadTable(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, edit(data, table), 0o644); err != nil {
		t.Fatal(err)
	}
}

// computeProfileScan is the reference answer: the windowed profile from
// a plain reading of every block, with no table consulted.
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
		b, err := br.NextReuse(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range b.Records {
			if !r.Type.IsDef() {
				tmin = math.Min(tmin, r.Time)
				tmax = math.Max(tmax, r.Time)
			}
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
		{tmin, tmax},
		{tmax + 1, tmax + 2}, // empty
	}
}

// The tentpole equality contract on real logs: for every golden and
// every window, the profile through the log's table is byte-identical to
// the full scan.
func TestWindowedIndexedEqualsScanOnGoldens(t *testing.T) {
	for _, name := range goldenLogs {
		t.Run(name, func(t *testing.T) {
			path := copyGolden(t, name)
			for _, w := range windowsFor(t, path) {
				p, used, err := ComputeProfileFileWindowed(path, w[0], w[1])
				if err != nil {
					t.Fatalf("window %v: %v", w, err)
				}
				if !used {
					t.Fatalf("window %v: the valid table was not used", w)
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

// Every way a log's table can go bad must degrade to the full scan with an
// identical answer — never an error, never a wrong profile.
func TestWindowedDegradation(t *testing.T) {
	sabotages := []struct {
		name string
		edit func(data []byte, table *clog2.Table) []byte
	}{
		// What a writer before tables left: the log and nothing behind it.
		{"missing", func(data []byte, table *clog2.Table) []byte { return data[:table.LogSize()] }},
		// The blocks were rewritten after the table was: rank 1's first
		// block, which the window reads, is now rank 0's, header and
		// records, stamped after rank 0's blocks before it.
		{"stale", func(data []byte, table *clog2.Table) []byte {
			i := slices.IndexFunc(table.Blocks, func(m clog2.BlockMeta) bool { return m.Rank == 1 })
			m := table.Blocks[i]
			br, err := clog2.NewBlockReaderAt(bytes.NewReader(data), m.Offset, table.NumRanks)
			if err != nil {
				panic(err)
			}
			b, err := br.NextReuse(nil)
			if err != nil {
				panic(err)
			}
			var after float64 // rank 0's last stamp before the block
			for _, e := range table.Blocks[:i] {
				if e.Rank == 0 && e.Records > e.Defs {
					after = e.TMax
				}
			}
			for i := range b.Records {
				b.Records[i].Rank = 0
				b.Records[i].Time += after
			}
			enc, err := clog2.AppendBlock(nil, 0, b.Records)
			if err != nil || int64(len(enc)) != m.Length {
				panic(fmt.Sprintf("rank 0's copy of the block: %d bytes, %v", len(enc), err))
			}
			copy(data[m.Offset:], enc)
			return data
		}},
		{"corrupt", func(data []byte, table *clog2.Table) []byte {
			data[table.LogSize()+20] ^= 0x80
			return data
		}},
		{"truncated", func(data []byte, table *clog2.Table) []byte {
			return data[:table.LogSize()+(int64(len(data))-table.LogSize())*2/3]
		}},
		// A table of another version under a valid CRC.
		{"previous version", func(data []byte, _ *clog2.Table) []byte {
			copy(data[len(data)-len(clog2.TableMagic):], "CLOGTAB-02")
			return data
		}},
		// A table that lies about the file under a valid CRC: ReadTable
		// accepts it, the mid-scan block check catches it, and the
		// consumer silently re-answers with the full scan.
		{"lying", func(data []byte, table *clog2.Table) []byte {
			for i := 1; i < len(table.Blocks); i++ {
				if table.Blocks[i].Rank != table.Blocks[0].Rank {
					table.Blocks[0].Rank, table.Blocks[i].Rank = table.Blocks[i].Rank, table.Blocks[0].Rank
					return clog2.AppendTable(data[:table.LogSize()], table)
				}
			}
			panic("a golden of one rank")
		}},
	}
	for _, name := range goldenLogs {
		for _, sb := range sabotages {
			t.Run(name+"/"+sb.name, func(t *testing.T) {
				path := copyGolden(t, name)
				rewrite(t, path, sb.edit)
				w := windowsFor(t, path)[1] // {tmin, mid}: a real window that leaves records out
				p, used, err := ComputeProfileFileWindowed(path, w[0], w[1])
				if err != nil {
					t.Fatalf("degraded profile errored: %v", err)
				}
				if used {
					t.Error("a sabotaged table was reported as used")
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

// A table that lies about rank 0's second block, by one record either way
// or in its rank, is found out after the profiler has folded the first:
// Walk starts it over and the answer is the full scan's, byte for byte.
func TestWindowedLyingLongBlock(t *testing.T) {
	long := []clog2.Record{stateDef(1, 2, 3, "PI_Read")}
	for i := 0; len(long) < 10_000; i++ {
		long = append(long, bare(0, float64(i)*1e-3, int32(2+i%2)))
	}
	raw := writeTestLog(t, 2, map[int32][]clog2.Record{0: long, 1: {bare(1, 0.5, 2), bare(1, 0.7, 3)}})
	for name, lie := range map[string]func(b *clog2.BlockMeta) int64{
		"one record fewer": func(b *clog2.BlockMeta) int64 { b.Records--; return -1 },
		"one record more":  func(b *clog2.BlockMeta) int64 { b.Records++; return 1 },
		"wrong rank":       func(b *clog2.BlockMeta) int64 { b.Rank = 1; return 0 },
	} {
		path := filepath.Join(t.TempDir(), "long.clog2")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		rewrite(t, path, func(data []byte, table *clog2.Table) []byte {
			table.TotalRecords += lie(&table.Blocks[1])
			return clog2.AppendTable(data[:table.LogSize()], table)
		})
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
	if !used {
		t.Error("the golden's table was not used")
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

// BenchmarkWindowedProfile profiles 1 % windows of a synthesized log of
// 8 ranks in blocks of 2 048 records (about 400 000 records, states with
// cargo, message halves and solo events, interleaved in time the way a
// merged log is) through its block table, one window an op. Beside ns/op
// it reports the records an op decodes (those the visitor is handed) and
// the ones the decoder steps over undecoded in the blocks it visits:
// bare, cargo and message records stamped outside the window.
func BenchmarkWindowedProfile(b *testing.B) {
	const ranks, perBlock, blocksPerRank = 8, 2048, 24
	path := filepath.Join(b.TempDir(), "windows.clog2")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	w, err := clog2.NewWriter(f, ranks)
	if err != nil {
		b.Fatal(err)
	}
	cargo := func(tm float64, rank, etype int32, text string) clog2.Record {
		r := clog2.Record{Type: clog2.RecCargoEvt, Time: tm, Rank: rank, ID: etype}
		r.SetCargo(text)
		return r
	}
	pending := make([][]clog2.Record, ranks)
	pending[0] = []clog2.Record{
		stateDef(1, 2, 3, "PI_Write"), stateDef(2, 4, 5, "PI_Read"),
		{Type: clog2.RecEventDef, ID: clog2.SoloBase + 1, Color: "yellow", Name: "MsgArrival"},
	}
	emit := func(rank int32, recs ...clog2.Record) {
		if pending[rank] = append(pending[rank], recs...); len(pending[rank]) >= perBlock {
			if err := w.WriteBlock(rank, pending[rank]); err != nil {
				b.Fatal(err)
			}
			pending[rank] = pending[rank][:0]
		}
	}
	var span float64
	for i := 0; i < ranks*blocksPerRank*perBlock/6; i++ {
		src := int32(i % ranks)
		dst := (src + 1) % ranks
		t0 := float64(i) * 1e-5
		span = t0 + 1e-5
		emit(src, cargo(t0, src, 2, "line: 17"), msg(src, t0+1e-6, clog2.DirSend, dst, src%4, 64), cargo(t0+2e-6, src, 3, ""))
		emit(dst, cargo(t0+3e-6, dst, 4, "line: 42"), msg(dst, t0+4e-6, clog2.DirRecv, src, src%4, 64),
			cargo(t0+5e-6, dst, clog2.SoloBase+1, "arrived"), cargo(t0+6e-6, dst, 5, ""))
	}
	for rank, recs := range pending {
		if err := w.WriteBlock(int32(rank), recs); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	ix, err := clog2.LoadTable(path)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	windows := make([][2]float64, 64)
	var decoded, read int64
	for i := range windows {
		t0 := rng.Float64() * 0.99 * span
		windows[i] = [2]float64{t0, t0 + span/100}
		q := clog2.MatchAll()
		q.T0, q.T1, q.IncludeDefs = t0, t0+span/100, true
		for _, j := range ix.Select(q) {
			read += int64(ix.Blocks[j].Records)
		}
		if _, err := clog2.Walk(path, q, func(int) func(clog2.Block) error {
			return func(b clog2.Block) error { decoded += int64(len(b.Records)); return nil }
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win := windows[i%len(windows)]
		if _, indexed, err := ComputeProfileFileWindowed(path, win[0], win[1]); err != nil || !indexed {
			b.Fatalf("window %v: indexed %v, err %v", win, indexed, err)
		}
	}
	b.ReportMetric(float64(decoded)/float64(len(windows)), "decoded/op")
	b.ReportMetric(float64(read-decoded)/float64(len(windows)), "skipped/op")
}

// readCounter counts the bytes read through it.
type readCounter struct {
	r io.Reader
	n int
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// A window clog2.CheckWindow refuses is refused alike by the profile of a
// stream and of a file, by CheckWindow's name for it and before a byte of
// the log is read, so Profile.Window never carries a NaN to json.Marshal.
func TestWindowedRefusesEmptyWindows(t *testing.T) {
	path := copyGolden(t, "lab2")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, w := range [][2]float64{{nan, nan}, {nan, 1}, {0, nan}, {0.5, 0.25}} {
		want := clog2.CheckWindow(w[0], w[1])
		if want == nil {
			t.Fatalf("CheckWindow(%g, %g) refuses nothing", w[0], w[1])
		}
		src := &readCounter{r: bytes.NewReader(data)}
		p, err := ComputeProfileWindowed(src, w[0], w[1])
		if err == nil || !strings.HasSuffix(err.Error(), want.Error()) || p != nil || src.n != 0 {
			t.Errorf("ComputeProfileWindowed(%g, %g) = %v after %d bytes, want CheckWindow's %q before any", w[0], w[1], err, src.n, want)
		}
		p, _, err = ComputeProfileFileWindowed(path, w[0], w[1])
		if err == nil || !strings.HasSuffix(err.Error(), want.Error()) || p != nil {
			t.Errorf("ComputeProfileFileWindowed(%g, %g) = %v, want CheckWindow's %q", w[0], w[1], err, want)
		}
	}
}
