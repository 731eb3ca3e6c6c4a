package serve

import (
	"bytes"
	"testing"

	"repro/internal/clog2"
	"repro/internal/jumpshot"
	"repro/internal/slog2"
)

// fullSpanFile converts an 8-rank log of n message rounds, five drawables
// a round: the sender's Compute state with a PI_Write nested inside it
// around the send, the receiver's PI_Read around the receive, the arrow,
// and a MsgArrival event after it.
func fullSpanFile(tb testing.TB, n int) *slog2.File {
	tb.Helper()
	return convertRanks(tb, fullSpanRecords(n))
}

// fullSpanRecords is fullSpanFile's log as each rank's records.
func fullSpanRecords(n int) [][]clog2.Record {
	const ranks = 8
	cargo := func(t float64, rank, id int32, text string) clog2.Record {
		r := clog2.Record{Type: clog2.RecCargoEvt, Time: t, Rank: rank, ID: id}
		r.SetCargo(text)
		return r
	}
	recs := make([][]clog2.Record, ranks)
	recs[0] = []clog2.Record{
		{Type: clog2.RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Color: "gray", Name: "Compute"},
		{Type: clog2.RecStateDef, ID: 2, Aux1: 4, Aux2: 5, Color: "green", Name: "PI_Write"},
		{Type: clog2.RecStateDef, ID: 3, Aux1: 6, Aux2: 7, Color: "red", Name: "PI_Read"},
		{Type: clog2.RecEventDef, ID: 1<<20 + 1, Color: "yellow", Name: "MsgArrival"},
	}
	for i := 0; i < n; i++ {
		src := int32(i % ranks)
		dst := (src + 1) % ranks
		t := float64(i) * 1e-5
		recs[src] = append(recs[src], cargo(t, src, 2, "line: 17 proc: P3"), cargo(t+1e-6, src, 4, "line: 18"),
			clog2.Record{Type: clog2.RecMsgEvt, Time: t + 2e-6, Rank: src, Dir: clog2.DirSend, Aux1: dst, Aux2: src % 4, Aux3: 256},
			cargo(t+3e-6, src, 5, ""), cargo(t+4e-6, src, 3, ""))
		recs[dst] = append(recs[dst], cargo(t+5e-6, dst, 6, "line: 42"),
			clog2.Record{Type: clog2.RecMsgEvt, Time: t + 6e-6, Rank: dst, Dir: clog2.DirRecv, Aux1: src, Aux2: src % 4, Aux3: 256},
			cargo(t+7e-6, dst, 7, ""), cargo(t+8e-6, dst, 1<<20+1, "chan: C3"))
	}
	return recs
}

// convertRanks writes each rank's records in blocks of a CLOG-2 log, as
// long as a block may be, and converts it.
func convertRanks(tb testing.TB, recs [][]clog2.Record) *slog2.File {
	tb.Helper()
	var log bytes.Buffer
	w, err := clog2.NewWriter(&log, len(recs))
	for rank, rs := range recs {
		if err == nil {
			err = w.WriteCut(clog2.NewCut(int32(rank), len(recs), clog2.MaxBlockRecords, rs))
		}
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		tb.Fatal(err)
	}
	f, _, err := slog2.ConvertReader(&log, slog2.ConvertOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

// BenchmarkFullSpanTile is the first tile a viewer asks of a big log: the
// whole span of 100 000 drawables over 8 ranks at zoom 0, as SVG (preview
// stripes for the states, every arrow and event drawn) and as JSON (every
// drawable). MB/s is of the tile's body and B/op of the render.
func BenchmarkFullSpanTile(b *testing.B) {
	f := fullSpanFile(b, 20_000)
	if s, a, e := f.All(); len(s)+len(a)+len(e) < 100_000 {
		b.Fatalf("%d drawables", len(s)+len(a)+len(e))
	}
	tr := &Trace{ID: "fullspan", File: f}
	win := jumpshot.Window{T0: f.Start, T1: f.End, RankLo: 0, RankHi: -1}
	for _, format := range []string{"svg", "json"} {
		b.Run(format, func(b *testing.B) {
			p := tileParams{win: win, format: format}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, _, err := renderTile(nil, tr, p)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(body)))
			}
		})
	}
}
