package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one campaign (or
// one probe round) share the campaign identifier: the ID of their root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // -1 at a root
	Campaign int     `json:"campaign"`
	Spec     int     `json:"spec"` // pool index, set on roots
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

func (s *span) us() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 {
	return float64(time.Since(t.origin)) / float64(time.Microsecond)
}

// begin opens a span under parent (-1: a new root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	campaign := id
	if parent >= 0 {
		campaign = t.spans[parent].Campaign
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Campaign: campaign, Spec: -1, Name: name, StartUS: at})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id].EndUS = at
	t.mu.Unlock()
}

// tag records which pool spec a root span ran.
func (t *tracer) tag(id, spec int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].Spec = spec
	t.mu.Unlock()
}

// timed runs f inside a span and returns f's error.
func (t *tracer) timed(name string, parent int, f func() error) error {
	id := t.begin(name, parent)
	err := f()
	t.end(id)
	return err
}

// maxWrittenSpans caps the span file; the metrics use every span.
const maxWrittenSpans = 200000

// write stores the spans as NDJSON in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if i == maxWrittenSpans {
			break
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
