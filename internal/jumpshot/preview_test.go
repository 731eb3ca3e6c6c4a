package jumpshot

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/slog2"
)

// previewFile is a log of 111 one-second buckets (the preview buckets of
// a 1200-pixel render) on each of eight ranks, each bucket holding four
// states of four categories back to back. In bucket 0 their lengths are
// ones whose total's last bit depends on the order they are added in, and
// a stripe's height on the total: summed in map order, the stripes come
// out 16.2 or 16.3 pixels high from one render to the next.
func previewFile() *slog2.File {
	f := &slog2.File{NumRanks: 8, End: 111, Categories: []slog2.Category{
		{Name: "Compute", Color: "gray"}, {Name: "PI_Write", Color: "green"},
		{Name: "PI_Read", Color: "red"}, {Name: "PI_Select", Color: "orange"}}}
	fr := &slog2.Frame{End: f.End}
	for rank := range f.NumRanks {
		for b := range 111 {
			t := float64(b)
			for cat, d := range []float64{0.028, 0.021, 0.247, 0.16} {
				fr.States = append(fr.States, slog2.State{Rank: rank, Cat: (cat + rank) % 4, Start: t, End: t + d})
				t += d
			}
		}
	}
	f.Root = fr
	return f
}

// The preview stripes are a function of the file: each bucket's total is
// summed in category order, where it was once summed in map order, which
// Go randomizes from one render to the next. Fifty renders of the
// thumbnail golden's preview tile are each its golden document, and fifty
// of a log with four categories in every bucket are each one document.
func TestPreviewDeterministic(t *testing.T) {
	thumb, err := slog2.ReadFile("../../testdata/golden/thumbnail.slog2")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/golden/thumbnail.tile-preview.svg")
	if err != nil {
		t.Fatal(err)
	}
	synth := previewFile()
	for _, c := range []struct {
		name string
		f    *slog2.File
		v    View
		want []byte
	}{
		{"thumbnail", thumb, View{PreviewThreshold: 8}, golden},
		{"synthesized", synth, View{PreviewThreshold: 2}, AppendSVG(nil, synth, View{PreviewThreshold: 2})},
	} {
		if !bytes.Contains(c.want, []byte(`fill="none"`)) {
			t.Fatalf("%s: no preview bucket drawn", c.name)
		}
		for i := range 50 {
			if got := AppendSVG(nil, c.f, c.v); !bytes.Equal(got, c.want) {
				t.Fatalf("%s: render %d differs", c.name, i)
			}
		}
	}
}
