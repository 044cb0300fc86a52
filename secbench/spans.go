package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Spans of one run or request share ID; Parent is
// the span that caused this one (0 for a workload's root span).
type span struct {
	Span    uint64  `json:"span"`
	Parent  uint64  `json:"parent"`
	ID      string  `json:"id"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its number plus the function that
// closes it.
func (t *tracer) start(name, id string, parent uint64) (uint64, func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Now()
	t.mu.Lock()
	t.next++
	n := t.next
	t.mu.Unlock()
	return n, func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{
			Span: n, Parent: parent, ID: id, Name: name,
			StartUs: float64(begin.Sub(t.t0).Nanoseconds()) / 1e3,
			EndUs:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
		})
		t.mu.Unlock()
	}
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
