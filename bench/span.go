package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call. Name is "<layer>.<what>"; Parent is the id of the span that caused
// it (0 for none); Rep is the journey repetition it belongs to.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Rep     int     `json:"rep"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	Bytes   int64   `json:"bytes,omitempty"`
	Records int64   `json:"records,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	rep   int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRep labels the spans that follow with a repetition id.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rep: t.rep, Start: now})
	return len(t.spans)
}

// end closes the span and returns its duration in seconds.
func (t *tracer) end(id int, bytes, records int64) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Bytes, s.Records = now, bytes, records
	return s.dur()
}

// add records a span whose interval the harness learned after the fact,
// such as the wrap-up time a finished runtime reports.
func (t *tracer) add(parent int, name string, start, end float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Rep: t.rep, Start: start, End: end})
}

// now is the tracer's clock, for add.
func (t *tracer) now() float64 {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch).Seconds()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap (two
// clients under one phase), so the covered part is the union of their
// intervals, clipped to the parent.
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerOf returns the layer a span name belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerSelfSeconds sums span self time by layer.
func layerSelfSeconds(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// traceFile is the layout of trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// LayerSelfSeconds is span self time summed by layer over the whole
	// traced pass.
	LayerSelfSeconds map[string]float64 `json:"layer_self_seconds"`
	Spans            []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(traceFile{
		Workload:         workload,
		Seed:             seed,
		LayerSelfSeconds: layerSelfSeconds(t.spans),
		Spans:            t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
