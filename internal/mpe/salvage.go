package mpe

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/clog2"
)

// Salvage: merging the spill fragments of a dead run back into one
// complete CLOG-2 file. The paper's future-work wish — "it would be
// better if the MPE log could be finalized in all cases" — demands more
// than surviving a polite abort: the fragments on disk after a SIGKILL
// mid-write, a torn page, or bit-rot are exactly the evidence needed to
// debug the death, so salvage must recover everything intact rather than
// discarding from the first damaged byte. A fragment (framed,
// checksummed segments: the one spill format) is scanned once, with
// resynchronization; a missing or damaged defs table degrades to
// synthesized placeholder definitions instead of failing the whole
// salvage.

// RankSalvage is the per-rank damage accounting of one salvage run. The
// segment counts close exactly over the sequence-number space:
// Recovered + Skipped + Missing == Written, where Written is the lower
// bound maxSeq+1 established by the highest sequence number seen.
type RankSalvage struct {
	Rank int
	Path string

	// SegmentsRecovered counts segments decoded into records.
	SegmentsRecovered int
	// SegmentsSkipped counts frames that validated (CRC) but could not
	// be decoded, or that hold a record stamped before the rank's records
	// recovered ahead of them (a frame out of place) — a writer bug or
	// version skew, normally zero.
	SegmentsSkipped int
	// SegmentsMissing counts sequence numbers known to have been written
	// (they fall below the highest seq seen) whose segments were lost to
	// damage — the holes the resync scanner jumped over.
	SegmentsMissing int
	// SegmentsWritten is the per-rank lower bound on segments the dead
	// run wrote: maxSeq+1, or 0 when no segment survived.
	SegmentsWritten int64

	// BytesQuarantined and DamagedRegions summarise the bytes belonging
	// to no valid segment; TailTorn marks a fragment that ends inside
	// damage (the torn final write of a SIGKILL).
	BytesQuarantined int64
	DamagedRegions   int
	TailTorn         bool

	// Records is how many records this rank contributed to the merged
	// log.
	Records int

	// Note says why a fragment held no segment to scan ("unreadable: ...",
	// "empty", "unrecognized spill data"); empty otherwise.
	Note string
}

// Damaged reports whether this rank's fragment shows any loss or damage.
func (r *RankSalvage) Damaged() bool {
	return r.SegmentsSkipped > 0 || r.SegmentsMissing > 0 ||
		r.BytesQuarantined > 0 || r.Note != ""
}

// SalvageReport is the full account of one salvage run.
type SalvageReport struct {
	Prefix string
	// NumRanks is the rank count written into the merged file header.
	NumRanks int
	// Ranks holds one entry per discovered fragment, ascending by rank.
	Ranks []RankSalvage
	// RanksRecovered counts ranks that contributed at least one record.
	RanksRecovered int
	// DefsSynthesized is set when the defs spill was missing or damaged
	// and placeholder state/event definitions were generated from the
	// etypes observed in the fragments.
	DefsSynthesized bool
	// Warnings collects non-fatal problems (missing defs, unreadable
	// fragments) in discovery order.
	Warnings []string
}

// Totals sums the per-rank segment accounting.
func (rep *SalvageReport) Totals() (recovered, skipped, missing int, quarantined int64) {
	for i := range rep.Ranks {
		r := &rep.Ranks[i]
		recovered += r.SegmentsRecovered
		skipped += r.SegmentsSkipped
		missing += r.SegmentsMissing
		quarantined += r.BytesQuarantined
	}
	return
}

// RecoveryPct returns the recovered share of the segment accounting as a
// percentage in [0,100]. The denominator is every segment the report
// knows about (recovered + skipped + missing); a report with no segment
// accounting at all — an empty spill family, or fragments that decoded
// to nothing — has nothing to lose and reports 100, never dividing by
// zero.
func (rep *SalvageReport) RecoveryPct() float64 {
	rec, skip, miss, _ := rep.Totals()
	total := rec + skip + miss
	if total <= 0 {
		return 100
	}
	return 100 * float64(rec) / float64(total)
}

// Clean reports a full recovery: real defs, and no rank lost a segment
// or quarantined a byte.
func (rep *SalvageReport) Clean() bool {
	if rep.DefsSynthesized {
		return false
	}
	for i := range rep.Ranks {
		if rep.Ranks[i].Damaged() {
			return false
		}
	}
	return true
}

// Summary renders the one-line form used in warnings and tool output.
func (rep *SalvageReport) Summary() string {
	rec, skip, miss, quar := rep.Totals()
	s := fmt.Sprintf("%d rank(s), %d segment(s) recovered", rep.RanksRecovered, rec)
	if skip+miss > 0 {
		s += fmt.Sprintf(", %d skipped, %d missing (%.1f%% recovered)", skip, miss, rep.RecoveryPct())
	}
	if quar > 0 {
		s += fmt.Sprintf(", %d byte(s) quarantined", quar)
	}
	if rep.DefsSynthesized {
		s += ", defs synthesized"
	}
	return s
}

// String renders the full per-rank report.
func (rep *SalvageReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "salvage report for %s: %s\n", rep.Prefix, rep.Summary())
	for i := range rep.Ranks {
		r := &rep.Ranks[i]
		fmt.Fprintf(&b, "  rank %d: %d recovered / %d skipped / %d missing of %d written, %d record(s)",
			r.Rank, r.SegmentsRecovered, r.SegmentsSkipped, r.SegmentsMissing, r.SegmentsWritten, r.Records)
		if r.BytesQuarantined > 0 {
			fmt.Fprintf(&b, ", %d byte(s) quarantined in %d region(s)", r.BytesQuarantined, r.DamagedRegions)
		}
		if r.TailTorn {
			b.WriteString(", tail torn")
		}
		if r.Note != "" {
			fmt.Fprintf(&b, " (%s)", r.Note)
		}
		b.WriteByte('\n')
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	return strings.TrimRight(b.String(), "\n")
}

// SpillFragment is one discovered per-rank spill file.
type SpillFragment struct {
	Rank int
	Path string
}

// globEscape backslash-escapes filepath.Glob metacharacters, so a spill
// prefix containing '*', '?' or '[' globs literally.
func globEscape(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '*', '?', '[', '\\':
			b.WriteByte('\\')
		}
		b.WriteRune(c)
	}
	return b.String()
}

// FindSpillFragments discovers the per-rank fragments of a spill family
// by globbing "<prefix>.rank*.spill" — no bounded rank probe, so rank
// 4096's fragment is found as surely as rank 0's. Results are ascending
// by rank.
func FindSpillFragments(prefix string) []SpillFragment {
	matches, err := filepath.Glob(globEscape(prefix) + ".rank*.spill")
	if err != nil {
		return nil
	}
	frags := make([]SpillFragment, 0, len(matches))
	for _, m := range matches {
		mid := strings.TrimSuffix(strings.TrimPrefix(m, prefix+".rank"), ".spill")
		rank, err := strconv.Atoi(mid)
		if err != nil || rank < 0 || strconv.Itoa(rank) != mid {
			continue // not a rank fragment (e.g. "rankX.spill")
		}
		frags = append(frags, SpillFragment{Rank: rank, Path: m})
	}
	sort.Slice(frags, func(i, j int) bool { return frags[i].Rank < frags[j].Rank })
	return frags
}

// salvageFragment recovers one rank fragment's records and fills its
// accounting.
func salvageFragment(rank int, path string, data []byte) ([]clog2.Record, RankSalvage) {
	rs := RankSalvage{Rank: rank, Path: path}
	if len(data) == 0 {
		rs.Note = "empty"
		return nil, rs
	}
	segs, stats := clog2.ScanSegments(data)
	rs.BytesQuarantined = stats.BytesQuarantined
	rs.DamagedRegions = stats.DamagedRegions
	rs.TailTorn = stats.TailTorn
	if len(segs) == 0 {
		// The scan has quarantined the whole fragment as one torn region.
		rs.Note = "unrecognized spill data"
		return nil, rs
	}
	var recs []clog2.Record
	seen := make(map[uint64]bool, len(segs))
	maxSeq := int64(-1)
	last := math.Inf(-1) // the rank's last stamp recovered
	for _, seg := range segs {
		if seen[seg.Seq] {
			continue // duplicate frame; first occurrence won
		}
		seen[seg.Seq] = true
		if int64(seg.Seq) > maxSeq {
			maxSeq = int64(seg.Seq)
		}
		block, err := clog2.DecodeBlockPayload(seg.Payload, int32(rank))
		if err != nil || int(seg.Rank) != rank || !stampedAfter(block.Records, &last) {
			rs.SegmentsSkipped++
			continue
		}
		rs.SegmentsRecovered++
		recs = append(recs, block.Records...)
	}
	rs.SegmentsWritten = maxSeq + 1
	rs.SegmentsMissing = int(rs.SegmentsWritten) - rs.SegmentsRecovered - rs.SegmentsSkipped
	rs.Records = len(recs)
	return recs, rs
}

// stampedAfter reports whether recs, a block in time order, holds no timed
// record stamped before *last, which it moves on to the block's last stamp.
func stampedAfter(recs []clog2.Record, last *float64) bool {
	for _, r := range recs {
		if !r.Type.IsDef() {
			if r.Time < *last {
				return false // the first timed record: the rest are no earlier
			}
			*last = r.Time
		}
	}
	return true
}

// loadSpillDefs reads the defs spill: one segment whose payload is a
// whole CLOG-2 stream. It returns the definition records and the world
// size the defs file recorded; a missing or damaged file returns no
// records and a warning note.
func loadSpillDefs(prefix string) (defs []clog2.Record, numRanks int, note string) {
	data, err := os.ReadFile(spillDefsPath(prefix))
	if err != nil {
		return nil, 0, "defs spill unreadable: " + err.Error()
	}
	segs, _ := clog2.ScanSegments(data)
	if len(segs) == 0 {
		return nil, 0, "defs spill damaged: unrecognized data"
	}
	br, err := clog2.NewBlockReader(bytes.NewReader(segs[0].Payload))
	if err != nil {
		return nil, 0, "defs spill damaged: " + err.Error()
	}
	// The payload has no block table, so a block that cannot be read is a
	// torn tail: the complete blocks before it stand.
	_ = br.Each(func(b clog2.Block) error {
		defs = append(defs, b.Records...)
		return nil
	})
	return defs, br.NumRanks(), ""
}

// synthesizeDefs fabricates placeholder state and event definitions for
// every etype observed in the salvaged records, so the timeline still
// converts when the defs spill is lost: states render as gray
// "salvaged state N" rectangles, solo events as white bubbles. The real
// names died with the defs table; the activity did not.
func synthesizeDefs(perRank map[int][]clog2.Record) []clog2.Record {
	states := map[StateID]bool{}
	events := map[EventID]bool{}
	var byParity clog2.Etypes
	for _, recs := range perRank {
		for i := range recs {
			r := &recs[i]
			if r.Type != clog2.RecBareEvt && r.Type != clog2.RecCargoEvt {
				continue
			}
			if kind, id := byParity.Classify(r.ID); kind == clog2.EtypeSolo {
				events[EventID(id-clog2.SoloBase)] = true
			} else {
				states[StateID(id)] = true
			}
		}
	}
	sids := make([]StateID, 0, len(states))
	for sid := range states {
		sids = append(sids, sid)
	}
	sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
	eids := make([]EventID, 0, len(events))
	for eid := range events {
		eids = append(eids, eid)
	}
	sort.Slice(eids, func(i, j int) bool { return eids[i] < eids[j] })

	defs := make([]clog2.Record, 0, len(sids)+len(eids))
	for _, sid := range sids {
		defs = append(defs, clog2.Record{
			Type: clog2.RecStateDef, ID: int32(sid),
			Aux1: startEtype(sid), Aux2: endEtype(sid),
			Color: "gray", Name: fmt.Sprintf("salvaged state %d", sid),
		})
	}
	for _, eid := range eids {
		defs = append(defs, clog2.Record{
			Type: clog2.RecEventDef, ID: soloEtype(eid),
			Color: "white", Name: fmt.Sprintf("salvaged event %d", eid),
		})
	}
	return defs
}

// SalvageWithReport merges the spill fragments of a dead run into one
// complete CLOG-2 file written to out, and reports exactly what was
// recovered, skipped and lost. Fragments are discovered by globbing, so
// no rank is out of range; a missing or damaged defs spill degrades to
// synthesized definitions with a warning instead of an error. The spill
// files are left in place; callers delete them once satisfied.
//
// The error is non-nil only when nothing at all could be salvaged or the
// output could not be written.
func SalvageWithReport(prefix string, out io.Writer) (*SalvageReport, error) {
	rep := &SalvageReport{Prefix: prefix}

	perRank := map[int][]clog2.Record{}
	maxRank := -1 // the highest rank a fragment or a message half names: the header covers it
	for _, frag := range FindSpillFragments(prefix) {
		if frag.Rank >= clog2.MaxRanks {
			rep.Ranks = append(rep.Ranks, RankSalvage{Rank: frag.Rank, Path: frag.Path, Note: "skipped: past the ranks a log holds"})
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("rank %d fragment skipped: a log holds ranks 0 to %d", frag.Rank, clog2.MaxRanks-1))
			continue
		}
		data, err := os.ReadFile(frag.Path)
		if err != nil {
			rep.Ranks = append(rep.Ranks, RankSalvage{
				Rank: frag.Rank, Path: frag.Path,
				Note: "unreadable: " + err.Error(),
			})
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("rank %d fragment unreadable: %v", frag.Rank, err))
			continue
		}
		recs, rs := salvageFragment(frag.Rank, frag.Path, data)
		rep.Ranks = append(rep.Ranks, rs)
		if rs.Note != "" && rs.Note != "empty" {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("rank %d: %s", frag.Rank, rs.Note))
		}
		if len(recs) > 0 {
			perRank[frag.Rank] = recs
			maxRank = max(maxRank, frag.Rank)
			for i := range recs {
				if recs[i].Type == clog2.RecMsgEvt {
					maxRank = max(maxRank, int(recs[i].Aux1))
				}
			}
		}
	}

	defs, defsRanks, note := loadSpillDefs(prefix)
	if note != "" {
		rep.Warnings = append(rep.Warnings, note)
	}
	if len(defs) == 0 {
		if len(perRank) == 0 {
			return rep, fmt.Errorf("mpe: nothing to salvage under %s: no defs spill and no rank fragments", prefix)
		}
		defs = synthesizeDefs(perRank)
		rep.DefsSynthesized = true
		rep.Warnings = append(rep.Warnings,
			fmt.Sprintf("definitions synthesized from observed etypes (%d defs); state and event names were lost with the defs spill", len(defs)))
	}

	rep.NumRanks = max(defsRanks, maxRank+1, 1)
	w, err := clog2.NewWriter(out, rep.NumRanks)
	if err != nil {
		return rep, err
	}
	if err := w.WriteCut(clog2.NewCut(0, rep.NumRanks, blockRecords, defs)); err != nil {
		return rep, err
	}
	ranks := make([]int, 0, len(perRank))
	for rank := range perRank {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		// A fragment's segments, a record each, are in the order the rank
		// logged them, which is time order: its records are cut into blocks
		// as Finish cuts a rank's log.
		if err := w.WriteCut(clog2.NewCut(int32(rank), rep.NumRanks, blockRecords, perRank[rank])); err != nil {
			return rep, err
		}
		rep.RanksRecovered++
	}
	return rep, w.Close()
}

// RemoveSpills deletes every spill file of the prefix family. Fragments
// are discovered by globbing.
func RemoveSpills(prefix string) {
	os.Remove(spillDefsPath(prefix))
	for _, frag := range FindSpillFragments(prefix) {
		os.Remove(frag.Path)
	}
}
