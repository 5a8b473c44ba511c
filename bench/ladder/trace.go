package ladder

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call. Start and End are nanoseconds since the trace
// began; Parent is 0 for a root span; Input identifies the input the
// call worked on (-1 when it worked on none).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Input  int    `json:"input"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Trace keeps spans in memory until WriteFile. It is safe for concurrent
// use.
type Trace struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace; span times are relative to now.
func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// NewID reserves a span ID, for a parent recorded after its children.
func (t *Trace) NewID() int64 { return t.ids.Add(1) }

// Add records a span under a reserved ID.
func (t *Trace) Add(id, parent int64, name string, input int, start, end time.Time) {
	s := Span{ID: id, Parent: parent, Name: name, Input: input,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Len is the number of spans recorded.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteFile writes the spans as JSON lines, in the order recorded.
func (t *Trace) WriteFile(path string) error {
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
