package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/clog2"
)

var goldens = []string{"lab2", "collisions", "thumbnail"}

func golden(name string) string {
	return filepath.Join("..", "..", "testdata", "golden", name+".clog2")
}

// On every golden, a dump through the log's block table prints what a dump
// of the same log with its footer cut off prints, which is the full scan's,
// for every combination of window, rank and channel filters: every rank up
// to the eighth and up to nine channels the log's messages name, the first
// eight and the last.
func TestDumpThroughTableEqualsScan(t *testing.T) {
	for _, name := range goldens {
		data, err := os.ReadFile(golden(name))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		table, cut := filepath.Join(dir, "table.clog2"), filepath.Join(dir, "cut.clog2")
		if err := os.WriteFile(table, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cut, data[:len(data)-clog2.FooterSize], 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := clog2.LoadTable(table)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := clog2.LoadTable(cut); err == nil {
			t.Fatalf("%s: a log without its footer still has a table", name)
		}
		tmin, tmax := math.Inf(1), math.Inf(-1)
		ranks := []int{-1}
		for r := range min(ix.NumRanks, 8) {
			ranks = append(ranks, r)
		}
		for _, b := range ix.Blocks {
			if b.Records > b.Defs {
				tmin, tmax = math.Min(tmin, b.TMin), math.Max(tmax, b.TMax)
			}
		}
		channels := messageTags(t, data)
		if len(channels) > 9 {
			channels = append(channels[:8], channels[len(channels)-1])
		}
		channels = append([]int32{-1}, channels...)
		mid := tmin + (tmax-tmin)/2
		for _, w := range [][2]float64{{math.Inf(-1), math.Inf(1)}, {tmin, mid}, {mid, tmax}, {tmax + 1, tmax + 2}} {
			for _, rank := range ranks {
				for _, channel := range channels {
					args := []string{"-t0", strconv.FormatFloat(w[0], 'g', -1, 64), "-t1", strconv.FormatFloat(w[1], 'g', -1, 64),
						"-rank", strconv.Itoa(rank), "-channel", strconv.Itoa(int(channel))}
					var a, b bytes.Buffer
					if code := run(append(args, table), &a, io.Discard); code != 0 {
						t.Fatalf("%s %v: exit %d", name, args, code)
					}
					if code := run(append(args, cut), &b, io.Discard); code != 0 {
						t.Fatalf("%s %v: exit %d", name, args, code)
					}
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Errorf("%s %v: the dump through the table differs from the scan's\ntable: %.300s\nscan:  %.300s", name, args, a.Bytes(), b.Bytes())
					}
					if rank < 0 && channel < 0 && math.IsInf(w[0], -1) {
						if want := fmt.Sprintf("%d record(s)\n", ix.TotalRecords); !bytes.HasSuffix(a.Bytes(), []byte(want)) {
							t.Errorf("%s: an unfiltered dump ends %q, want %q", name, a.Bytes()[max(0, a.Len()-30):], want)
						}
					}
				}
			}
		}
	}
}

// messageTags lists the tags of the message halves in the log data holds,
// in order of first appearance.
func messageTags(t *testing.T, data []byte) []int32 {
	t.Helper()
	var tags []int32
	br, err := clog2.NewBlockReader(bytes.NewReader(data))
	if err == nil {
		err = br.Each(func(b clog2.Block) error {
			for _, r := range b.Records {
				if r.Type == clog2.RecMsgEvt && !slices.Contains(tags, r.Aux2) {
					tags = append(tags, r.Aux2)
				}
			}
			return nil
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	return tags
}

// -channel N keeps what the query hands over that is a message half on
// channel N: on the lab2 golden, exactly the unfiltered dump's message
// lines of that channel, for every channel the log names.
func TestChannelKeepsItsMessageLines(t *testing.T) {
	path := golden("lab2")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var all bytes.Buffer
	if code := run([]string{path}, &all, io.Discard); code != 0 {
		t.Fatalf("clogdump: exit %d", code)
	}
	lines := strings.Split(strings.TrimSuffix(all.String(), "\n"), "\n")
	tags := messageTags(t, data)
	if len(tags) < 2 {
		t.Fatalf("lab2 names %d channel(s); the test needs two or more", len(tags))
	}
	for _, tag := range tags {
		want := []string{lines[0]}
		for _, line := range lines[1 : len(lines)-1] {
			if strings.Contains(line, " MsgEvt ") && strings.Contains(line, fmt.Sprintf(" tag=%d ", tag)) {
				want = append(want, line)
			}
		}
		want = append(want, fmt.Sprintf("%d record(s)", len(want)-1))
		var out bytes.Buffer
		if code := run([]string{"-channel", strconv.Itoa(int(tag)), path}, &out, io.Discard); code != 0 {
			t.Fatalf("clogdump -channel %d: exit %d", tag, code)
		}
		if got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n"); !slices.Equal(got, want) {
			t.Errorf("clogdump -channel %d printed %d line(s), the unfiltered dump has %d of its messages", tag, len(got), len(want))
		}
	}
}

// A log with no end-log marker shows its complete blocks, with a warning.
func TestDumpTornLog(t *testing.T) {
	log, err := clog2.AppendBlock(clog2.AppendHeader(nil, 1), 0, []clog2.Record{{Type: clog2.RecBareEvt, Time: 1, ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "torn.clog2")
	if err := os.WriteFile(path, append(log, log[clog2.HeaderSize:len(log)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, warn bytes.Buffer
	if err := dump(&out, &warn, path, clog2.MatchAll(), func(*clog2.Record) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "ranks: 1\n"+formatRecord(clog2.Record{Type: clog2.RecBareEvt, Time: 1, ID: 2})+"\n1 record(s)\n" {
		t.Errorf("torn log dumps %q", got)
	}
	if warn.Len() == 0 {
		t.Error("no warning for a torn log")
	}

	// A log whose block table validates is never torn: here block 1's
	// record count, behind its marker and rank, says 238 records where the block holds
	// 15. Its complete block 0 used to be dumped as a torn log's, exit 0; the
	// dump names the error and exits 1, as -verify does.
	data, err := os.ReadFile(golden("lab2"))
	if err != nil {
		t.Fatal(err)
	}
	table, err := clog2.LoadTable(golden("lab2"))
	if err != nil {
		t.Fatal(err)
	}
	data[table.Blocks[1].Offset+5] = 0xee
	path = filepath.Join(t.TempDir(), "corrupt.clog2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := clog2.LoadTable(path); err != nil {
		t.Fatalf("the corrupt log's table does not validate: %v", err)
	}
	var named []string
	for _, args := range [][]string{{path}, {"-verify", path}} {
		var out, errOut bytes.Buffer
		code := run(args, &out, &errOut)
		if code != 1 || strings.Contains(errOut.String(), "torn") || !strings.HasPrefix(errOut.String(), "clogdump: clog2: ") ||
			strings.Contains(out.String(), "record(s)") {
			t.Errorf("clogdump %v on a corrupt log under a valid table: exit %d, stdout %.200q, stderr %q; want 1, no records, the error and no torn warning",
				args[:len(args)-1], code, out.String(), errOut.String())
		}
		named = append(named, errOut.String())
	}
	if named[0] != named[1] {
		t.Errorf("the dump names %q, -verify %q", named[0], named[1])
	}
}

// The table answers a query from the blocks it selects, so damage in a
// block it does not select does not reach the answer: on the lab2 copy
// whose block 1 says 238 records where it holds 15, the rank-0 dump
// through the table is an intact copy's full scan filtered to rank 0
// (the copy cut short of its table, which every query scans), while the
// full scan and -verify, which read block 1, fail.
func TestIndexedAnswerSkipsUnselectedDamage(t *testing.T) {
	data, err := os.ReadFile(golden("lab2"))
	if err != nil {
		t.Fatal(err)
	}
	table, err := clog2.LoadTable(golden("lab2"))
	if err != nil {
		t.Fatal(err)
	}
	if b := table.Blocks[1]; b.Rank == 0 {
		t.Fatalf("block 1 is rank 0's: a rank-0 query selects it")
	}
	dir := t.TempDir()
	corrupt, scanned := filepath.Join(dir, "corrupt.clog2"), filepath.Join(dir, "scanned.clog2")
	if err := os.WriteFile(scanned, data[:len(data)-clog2.FooterSize], 0o644); err != nil {
		t.Fatal(err)
	}
	data[table.Blocks[1].Offset+5] = 0xee
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dump := func(args ...string) (int, string) {
		var out bytes.Buffer
		return run(args, &out, io.Discard), out.String()
	}
	code, got := dump("-rank", "0", corrupt)
	wantCode, want := dump("-rank", "0", scanned)
	if code != 0 || wantCode != 0 || got != want || !strings.HasSuffix(got, " record(s)\n") {
		t.Errorf("rank 0 through the table: exit %d, %d bytes; the intact scan: exit %d, %d bytes; want both 0 and equal", code, len(got), wantCode, len(want))
	}
	for _, args := range [][]string{{corrupt}, {"-verify", corrupt}} {
		if code, _ := dump(args...); code != 1 {
			t.Errorf("clogdump %v on the damaged copy: exit %d, want 1", args[:len(args)-1], code)
		}
	}
}

// A NaN bound compares false with every time, so it used to read as no
// bound and dump every record; it is refused by name, as an inverted or
// wrong-side infinite window is, and a window that is only open on one
// side still dumps.
func TestRunRefusesNaNWindow(t *testing.T) {
	path := golden("thumbnail")
	for _, args := range [][]string{
		{"-t0", "NaN"}, {"-t1", "NaN"}, {"-t0", "NaN", "-t1", "-5"}, {"-t0", "0", "-t1", "-5"}, {"-t0", "+Inf"}, {"-t1", "-Inf"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append(args, path), &out, &errOut); code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), "empty time window") {
			t.Errorf("clogdump %v: exit %d, stdout %q, stderr %q; want 2, nothing, the window named", args, code, out.String(), errOut.String())
		}
	}
	var out bytes.Buffer
	if code := run([]string{"-t0", "-Inf", "-t1", "+Inf", path}, &out, io.Discard); code != 0 || !strings.HasSuffix(out.String(), " record(s)\n") {
		t.Errorf("clogdump over (-Inf, +Inf): exit %d, output ends %q", code, out.String()[max(0, out.Len()-30):])
	}
}

// A -type name that is no record type is refused with the valid names, not
// dumped as an empty log; a valid one matches in any case.
func TestRunRefusesUnknownType(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-type", "Bogus", golden("lab2")}, &out, &errOut); code != 2 || out.Len() != 0 ||
		!strings.Contains(errOut.String(), `"Bogus"`) || !strings.Contains(errOut.String(), "MsgEvt") {
		t.Errorf("clogdump -type Bogus: exit %d, stdout %q, stderr %q; want 2, nothing, the name and the valid ones", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := run([]string{"-type", "msgevt", golden("lab2")}, &out, io.Discard); code != 0 || !strings.Contains(out.String(), " MsgEvt ") {
		t.Errorf("clogdump -type msgevt: exit %d, output %.200q", code, out.String())
	}
}

// -defs keeps what RecType.IsDef calls a definition: state and event
// definitions and constants.
func TestDefsKeepsDefinitions(t *testing.T) {
	recs := []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "red", Name: "A"},
		{Type: clog2.RecEventDef, ID: 9, Color: "blue", Name: "E"},
		{Type: clog2.RecConstDef, ID: 8, Aux1: 42, Name: "K"},
		{Type: clog2.RecBareEvt, Time: 1, ID: 2},
	}
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, 1)
	if err == nil {
		err = w.WriteBlock(0, recs)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "defs.clog2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"-defs", path}, &out, io.Discard); code != 0 {
		t.Fatalf("clogdump -defs: exit %d", code)
	}
	want := "ranks: 1\n"
	for _, r := range recs[:3] {
		want += formatRecord(r) + "\n"
	}
	want += "3 record(s)\n"
	if out.String() != want {
		t.Errorf("clogdump -defs printed\n%s\nwant\n%s", out.String(), want)
	}
}

// -verify says whether a log's table is usable, and exits 1 naming the
// entry when the table validates and still is not the one a scan of the
// log makes: here a time fence that lies under a recomputed CRC.
func TestVerify(t *testing.T) {
	verify := func(path string) (int, string, string) {
		var out, errOut bytes.Buffer
		code := run([]string{"-verify", path}, &out, &errOut)
		return code, out.String(), errOut.String()
	}
	for _, name := range goldens {
		code, out, errOut := verify(golden(name))
		if code != 0 || !strings.HasPrefix(out, "table: ok\nranks: ") || !strings.Contains(out, "time span: [") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want 0, the table ok and the summary", name, code, out, errOut)
		}
	}
	data, err := os.ReadFile(golden("thumbnail"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cut := filepath.Join(dir, "cut.clog2")
	if err := os.WriteFile(cut, data[:len(data)-clog2.FooterSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errOut := verify(cut); code != 0 || !strings.HasPrefix(out, "table: degraded (clog2: no usable block table: ") || !strings.Contains(out, "\nranks: ") {
		t.Errorf("footer cut off: exit %d, stdout %q, stderr %q; want 0, degraded and why, the summary", code, out, errOut)
	}

	// A spill fragment has no table and no end-log marker: its complete
	// blocks are summed up, with a warning, as clogdump dumps them.
	torn, err := clog2.AppendBlock(clog2.AppendHeader(nil, 1), 0, []clog2.Record{{Type: clog2.RecBareEvt, Time: 1, ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "torn.clog2")
	if err := os.WriteFile(path, append(torn, torn[clog2.HeaderSize:len(torn)-3]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errOut := verify(path); code != 0 ||
		!strings.HasPrefix(out, "table: degraded (clog2: no usable block table: ") ||
		!strings.HasSuffix(out, "\nranks: 1, blocks: 1, records: 1\ntime span: [1.000000, 1.000000]s\n") ||
		!strings.Contains(errOut, "torn") {
		t.Errorf("torn log: exit %d, stdout %q, stderr %q; want 0, degraded, the complete block summed up, a warning", code, out, errOut)
	}

	// A table that validates over blocks a scan cannot read is an error:
	// here block 1's first record, behind its 8-byte header, has a type
	// byte no record type has.
	table, err := clog2.LoadTable(golden("thumbnail"))
	if err != nil {
		t.Fatal(err)
	}
	unreadable := bytes.Clone(data)
	unreadable[table.Blocks[1].Offset+8] = 0xff
	path = filepath.Join(dir, "unreadable.clog2")
	if err := os.WriteFile(path, unreadable, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, errOut := verify(path); code != 1 || out != "table: ok\n" || errOut == "" {
		t.Errorf("unreadable block under a valid table: exit %d, stdout %q, stderr %q; want 1, the table ok, the error", code, out, errOut)
	}

	lying, err := clog2.LoadTable(golden("thumbnail"))
	if err != nil {
		t.Fatal(err)
	}
	if b := &lying.Blocks[2]; b.TMin < b.TMax {
		b.TMax = b.TMin
	} else {
		t.Fatalf("block 2's fence [%v, %v] has nothing to cut", b.TMin, b.TMax)
	}
	path = filepath.Join(dir, "lying.clog2")
	if err := os.WriteFile(path, clog2.AppendTable(data[:lying.LogSize():lying.LogSize()], lying), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := clog2.LoadTable(path); err != nil {
		t.Fatalf("the lying table does not validate: %v", err)
	}
	if code, out, errOut := verify(path); code != 1 || !strings.HasPrefix(out, "table: ok\n") || !strings.Contains(errOut, "block 2 ") {
		t.Errorf("lying fence: exit %d, stdout %q, stderr %q; want 1, the table ok, block 2 named", code, out, errOut)
	}

	for _, filter := range [][]string{{"-rank", "0"}, {"-type", "MsgEvt"}, {"-defs"}, {"-t0", "0"}, {"-t1", "1"}, {"-channel", "3"}} {
		var out, errOut bytes.Buffer
		if code := run(append(append([]string{"-verify"}, filter...), golden("lab2")), &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("clogdump -verify %v: exit %d, stdout %q; want 2, nothing", filter, code, out.String())
		}
	}
}

// A log whose rank goes back in time breaks the rule of a block
// (clog2.Block): -verify exits 1 naming the rank and both stamps, as a dump
// of the log does. No Writer writes one, so the log is a Writer's with one
// stamp overwritten: rank 1's second block, behind a block of rank 0, goes
// back before rank 1's first. Under the table the Writer wrote and cut
// off at its end-log marker alike: a log without a table used to be
// called torn, and exit 0, whatever the scan refused it for.
// A definition after a timed record breaks the rule of a block: no writer
// writes one, so the log is built byte by byte, with a table that counts
// the late block and without any, and -verify and a dump each exit 1
// naming the breach.
func TestVerifyRefusesADefinitionAfterATimedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBlock(1, []clog2.Record{{Type: clog2.RecBareEvt, Rank: 1, Time: 1, ID: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tab := w.Table()
	log := buf.Bytes()[:tab.LogSize()-1] // up to the end-log marker
	at := int64(len(log))
	log = clog2.AppendBlockHeader(log, 0, 1)
	log, err = clog2.AppendRecord(log, &clog2.Record{Type: clog2.RecConstDef, ID: 7, Aux1: 42, Name: "answer"})
	if err != nil {
		t.Fatal(err)
	}
	log = append(log, byte(clog2.RecEndBlock), byte(clog2.RecEndLog))
	tab.Blocks = append(tab.Blocks, clog2.BlockMeta{Offset: at, Length: int64(len(log)) - 1 - at, Rank: 0, Records: 1, Defs: 1, TMin: math.Inf(1), TMax: math.Inf(-1)})
	tab.TotalRecords++
	dir := t.TempDir()
	const want = "clog2: a ConstDef record after the log's first timed record"
	for name, data := range map[string][]byte{"late.clog2": clog2.AppendTable(slices.Clone(log), tab), "late-untabled.clog2": log} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"-verify", path}, {path}} {
			var out, errOut bytes.Buffer
			code := run(args, &out, &errOut)
			if code != 1 || !strings.Contains(errOut.String(), want) || strings.Contains(errOut.String(), "torn") {
				t.Errorf("clogdump %v %s: exit %d, stdout %q, stderr %q; want 1 and %s", args[:len(args)-1], name, code, out.String(), errOut.String(), want)
			}
		}
	}
}

func TestVerifyRefusesABackwardStamp(t *testing.T) {
	bare := func(rank int32, at float64) clog2.Record {
		return clog2.Record{Type: clog2.RecBareEvt, Rank: rank, Time: at, ID: 2}
	}
	var buf bytes.Buffer
	w, err := clog2.NewWriter(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	var at int64
	for _, b := range []clog2.Block{{Rank: 1, Records: []clog2.Record{bare(1, 0.5), bare(1, 0.75)}}, {Rank: 0, Records: []clog2.Record{bare(0, 0)}}, {Rank: 1, Records: []clog2.Record{bare(1, 1)}}} {
		at = w.Offset()
		if err := w.WriteBlock(b.Rank, b.Records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	binary.LittleEndian.PutUint64(data[at+9+1:], math.Float64bits(0.5)) // behind the block header and the type byte
	dir := t.TempDir()
	const want = "clog2: a BareEvt record of rank 1 stamped 0.5, before its rank's 0.75"
	for name, log := range map[string][]byte{"back.clog2": data, "back-untabled.clog2": data[:w.Table().LogSize()]} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"-verify", path}, {path}} {
			var out, errOut bytes.Buffer
			code := run(args, &out, &errOut)
			if code != 1 || !strings.Contains(errOut.String(), want) || strings.Contains(errOut.String(), "torn") {
				t.Errorf("clogdump %v %s: exit %d, stdout %q, stderr %q; want 1 and %s", args[:len(args)-1], name, code, out.String(), errOut.String(), want)
			}
		}
	}
}
