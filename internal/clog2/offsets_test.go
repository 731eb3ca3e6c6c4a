package clog2

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// offsetsLog writes a three-rank log and returns its bytes.
func offsetsLog(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Offset(); got != int64(HeaderSize) {
		t.Fatalf("fresh writer offset = %d, want %d", got, HeaderSize)
	}
	for rank := int32(0); rank < 3; rank++ {
		recs := []Record{
			{Type: RecBareEvt, Rank: rank, Time: float64(rank), ID: 2},
			{Type: RecMsgEvt, Rank: rank, Time: float64(rank) + 0.5,
				Dir: DirSend, Aux1: (rank + 1) % 3, Aux2: 4, Aux3: 32},
		}
		if rank == 0 { // definitions lead rank 0's first block
			recs = append([]Record{{Type: RecStateDef, ID: 1, Aux1: 2, Aux2: 3, Name: "A", Color: "red"},
				{Type: RecConstDef, ID: 8, Aux1: 17, Name: "K"}}, recs...)
		}
		if err := w.WriteBlock(rank, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.Offset(); got != int64(buf.Len()) {
		t.Fatalf("writer offset = %d after close, file is %d bytes", got, buf.Len())
	}
	return buf.Bytes()
}

// The writer's running offset, the reader's block bounds, and the
// actual bytes must all agree: every reported [start, end) slice must
// re-decode to exactly the block it brackets.
func TestBlockBoundsBracketBlocks(t *testing.T) {
	raw := offsetsLog(t)
	br, err := NewBlockReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	type span struct {
		start, end int64
		block      Block
	}
	var spans []span
	prevEnd := int64(HeaderSize)
	for {
		b, err := br.NextReuse(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		start, end := br.BlockBounds()
		if start != prevEnd {
			t.Fatalf("block starts at %d, previous ended at %d", start, prevEnd)
		}
		if end <= start || end > int64(len(raw)) {
			t.Fatalf("block bounds [%d, %d) out of file [0, %d)", start, end, len(raw))
		}
		spans = append(spans, span{start, end, b})
		prevEnd = end
	}
	if len(spans) != 3 {
		t.Fatalf("decoded %d blocks, want 3", len(spans))
	}

	// Re-open each block independently at its recorded offset.
	for i, sp := range spans {
		at, err := NewBlockReaderAt(bytes.NewReader(raw), sp.start, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := at.NextReuse(nil)
		if err != nil {
			t.Fatalf("block %d at offset %d: %v", i, sp.start, err)
		}
		if !reflect.DeepEqual(b, sp.block) {
			t.Errorf("block %d re-read at offset %d differs:\n got %+v\nwant %+v", i, sp.start, b, sp.block)
		}
		if s, e := at.BlockBounds(); s != sp.start || e != sp.end {
			t.Errorf("block %d bounds after seek-read = [%d, %d), want [%d, %d)", i, s, e, sp.start, sp.end)
		}
	}

	// SeekTo jumps around out of order on one reader.
	at, err := NewBlockReaderAt(bytes.NewReader(raw), spans[2].start, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 0, 1, 0, 2} {
		if err := at.SeekTo(spans[i].start); err != nil {
			t.Fatal(err)
		}
		b, err := at.NextReuse(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b, spans[i].block) {
			t.Errorf("seek to block %d decoded the wrong block: %+v", i, b)
		}
	}
}

func TestSeekGuards(t *testing.T) {
	raw := offsetsLog(t)
	// A plain stream reader is not seekable.
	br, err := NewBlockReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := br.SeekTo(int64(HeaderSize)); err == nil {
		t.Error("SeekTo on a streaming reader did not error")
	}
	// Offsets inside the header are rejected.
	if _, err := NewBlockReaderAt(bytes.NewReader(raw), 0, 3); err == nil {
		t.Error("NewBlockReaderAt(0) did not error")
	}
	at, err := NewBlockReaderAt(bytes.NewReader(raw), int64(HeaderSize), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := at.SeekTo(1); err == nil {
		t.Error("SeekTo(1) did not error")
	}
	// Absurd rank counts are rejected (no header is read to check them).
	if _, err := NewBlockReaderAt(bytes.NewReader(raw), int64(HeaderSize), 0); err == nil {
		t.Error("NewBlockReaderAt with 0 ranks did not error")
	}
	// Seeking into the middle of a record decodes garbage or errors, but
	// never panics.
	if err := at.SeekTo(int64(HeaderSize) + 3); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := at.NextReuse(nil); err != nil {
			break
		}
	}
}
