package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gpustream"
)

// span is one timed call into a layer: its name, the span that caused it
// (0 for none), start and end in ns since the tracer started, and the
// number of values the call handled.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Values int    `json:"values,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory around the benchmark's calls into each
// layer; they are written out when the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// ingest is the open span the single ingest goroutine set before a
	// call that may sort; the sorter wrapper uses it as its parent. It is
	// left 0 where two goroutines share one sorter.
	ingest atomic.Int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id, recording the values it handled.
func (t *tracer) end(id int32, values int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End, s.Values = now, values
	t.mu.Unlock()
}

// byName returns the closed spans with the given name. Call it once the
// traced calls have returned.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// childTime sums, per parent id, the durations of spans named child.
func (t *tracer) childTime(child string) map[int32]time.Duration {
	out := map[int32]time.Duration{}
	for _, s := range t.byName(child) {
		if s.Parent != 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// durations collects the named spans' durations as a distribution.
func (t *tracer) durations(name string) *dist {
	d := &dist{}
	for _, s := range t.byName(name) {
		d.add(s.dur())
	}
	return d
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// tracingSorter records a span around every sort of the sorter it wraps.
// It forwards only Sort and Name, which is all a synchronous pipeline
// calls, so the estimator built on it runs the same program as one built
// on the wrapped sorter.
type tracingSorter struct {
	inner  gpustream.Sorter[float32]
	tr     *tracer
	attach bool // parent sort spans to tr.ingest
}

func (s *tracingSorter) Sort(data []float32) {
	var parent int32
	if s.attach {
		parent = s.tr.ingest.Load()
	}
	id := s.tr.begin("samplesort.sort", parent)
	s.inner.Sort(data)
	s.tr.end(id, len(data))
}

func (s *tracingSorter) Name() string { return s.inner.Name() }

// sortMetrics reports the samplesort layer's per-layer metrics from the
// recorded sort spans: ns per sorted value, calls per million ingested
// values, and mean values per call.
func sortMetrics(tr *tracer, ingested int64, m *metricSet) {
	var ns time.Duration
	var calls, values int64
	for _, s := range tr.byName("samplesort.sort") {
		ns += s.dur()
		calls++
		values += int64(s.Values)
	}
	if values == 0 || ingested == 0 {
		return
	}
	m.set("samplesort.sort_ns_per_value", float64(ns)/float64(values), "ns")
	m.set("samplesort.calls", float64(calls)/(float64(ingested)/1e6), "1/Mvalue")
	m.set("samplesort.values_per_call", float64(values)/float64(calls), "count")
}
