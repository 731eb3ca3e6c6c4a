package mpe

import (
	"fmt"
	"os"

	"repro/internal/clog2"
	"repro/internal/stats"
)

// Spill support: the paper's future work, implemented. "It would be
// better if the MPE log could be finalized in all cases" — with spilling
// enabled, every rank writes each record through to a per-rank spill file
// as it is logged (the same write-per-entry discipline that makes the
// native log abort-proof). A clean Finish removes the spill files; after
// an abort, SalvageWithReport merges the surviving fragments into a
// complete CLOG-2 file.
//
// There is one spill format: each write is one self-synchronizing
// segment — magic marker, version, rank, per-rank sequence number, payload
// length and a CRC-32C over header+payload, wrapping the bare CLOG-2 block
// encoding (see clog2/segment.go). One corrupted byte costs at most the
// segment holding it; salvage resynchronizes on the next marker and
// detects interior losses via sequence gaps. Anything else in a fragment,
// a raw CLOG-2 stream included, is quarantined as unrecognized.
//
// Caveat inherited from the design: records in spill files carry raw,
// unsynchronised per-rank clocks, because MPE_Log_sync_clocks runs during
// the wrap-up that an abort skips. With shared or mildly drifting clocks
// the salvaged log is still perfectly usable for debugging — and
// debugging an aborted program is exactly when you want it.

// spill is a per-rank write-through fragment: a segment stream.
type spill struct {
	f *os.File

	// A reusable frame buffer (header placeholder + payload, assembled in
	// place) and the per-rank segment sequence counter: steady-state
	// spilling allocates nothing.
	buf []byte
	seq uint64

	// mx mirrors spill traffic into the live metrics (nil = disabled).
	mx *stats.Collector
}

// segHeaderPlaceholder reserves room for the frame header; the real
// header is patched in after the payload is placed behind it.
var segHeaderPlaceholder [clog2.SegHeaderSize]byte

// dead reports a degraded spill (open failed; writes are dropped).
func (sp *spill) dead() bool { return sp.f == nil }

// EnableSpill turns on write-through spilling for every logger in the
// group. prefix names the spill family: rank r writes
// "<prefix>.rank<r>.spill" and the definition table goes to
// "<prefix>.defs.spill". Call before any logging happens.
func (g *Group) EnableSpill(prefix string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.spillPrefix = prefix
}

// SpillPrefix returns the active spill prefix ("" when disabled).
func (g *Group) SpillPrefix() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spillPrefix
}

func spillRankPath(prefix string, rank int) string {
	return fmt.Sprintf("%s.rank%d.spill", prefix, rank)
}

func spillDefsPath(prefix string) string { return prefix + ".defs.spill" }

// SpillDefs writes the definition tables to the defs spill file. Pilot
// calls it once, after all states and events are described (at
// PI_StartAll). The defs — a complete miniature CLOG-2 file, in blocks of
// blockRecords as Finish writes them — are wrapped in a single checksummed
// segment, so salvage can tell a damaged defs table from an intact one and
// fall back to synthesized defs.
func (g *Group) SpillDefs() error {
	prefix := g.SpillPrefix()
	if prefix == "" || !g.enabled {
		return nil
	}
	frame := clog2.AppendHeader(make([]byte, clog2.SegHeaderSize), g.world.Size())
	for defs := g.defRecords(); ; {
		n := min(len(defs), blockRecords)
		var err error
		if frame, err = clog2.AppendBlock(frame, 0, defs[:n]); err != nil {
			return err
		}
		if defs = defs[n:]; len(defs) == 0 {
			break
		}
	}
	frame = append(frame, byte(clog2.RecEndLog))
	clog2.FinalizeSegmentHeader(frame, 0, 0)
	return os.WriteFile(spillDefsPath(prefix), frame, 0o644)
}

// ensureSpill lazily opens the logger's spill file (on the logger's own
// goroutine, so no locking is needed beyond the prefix read).
func (l *Logger) ensureSpill() *spill {
	if l.sp != nil {
		if l.sp.dead() {
			return nil
		}
		return l.sp
	}
	prefix := l.g.SpillPrefix()
	if prefix == "" {
		return nil
	}
	f, err := os.Create(spillRankPath(prefix, l.rank.ID()))
	if err != nil {
		l.spErr = err
		l.sp = &spill{} // degraded: stop retrying
		return nil
	}
	l.sp = &spill{f: f, mx: l.g.world.Metrics()}
	return l.sp
}

// writeRecord lands one record, as the logger encoded it, on disk as a
// framed segment holding a one-record block (a single write call, so a
// torn write damages at most this segment).
func (sp *spill) writeRecord(rank int32, rec []byte) error {
	frame := clog2.AppendBlockHeader(append(sp.buf[:0], segHeaderPlaceholder[:]...), rank, 1)
	frame = append(append(frame, rec...), byte(clog2.RecEndBlock))
	sp.buf = frame
	clog2.FinalizeSegmentHeader(frame, rank, sp.seq)
	if _, err := sp.f.Write(frame); err != nil {
		return err
	}
	sp.seq++
	sp.mx.SpillWrite(int(rank), len(frame))
	return nil
}

// spillRecord writes one record through to disk immediately: a record
// the logger has taken is in the spill file before the call returns, which
// is what makes the log abort-proof. rec is the record's bytes on the
// logger's page, framed as they are.
func (l *Logger) spillRecord(rec []byte) {
	sp := l.ensureSpill()
	if sp == nil {
		return
	}
	if err := sp.writeRecord(int32(l.rank.ID()), rec); err != nil {
		l.spErr = err
	}
}

// closeSpill finalises the logger's spill file; when remove is true
// (clean shutdown) the file is deleted, since the merged log supersedes
// it.
func (l *Logger) closeSpill(remove bool) {
	if l.sp == nil || l.sp.dead() {
		return
	}
	l.sp.f.Close()
	if remove {
		os.Remove(l.sp.f.Name())
	}
	l.sp = nil
}
