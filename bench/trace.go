package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// harness around the call (the program itself is not instrumented
// here). Spans of one request share Req; Parent names the rung above.
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Attr    string `json:"attr,omitempty"`
}

// spanLog keeps the spans of a traced run in memory and writes them as
// JSON when the run ends. A nil *spanLog records nothing, which is how
// the untraced runs pay nothing for it.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name, parent string, req int, start time.Time, d time.Duration, attr string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Req: req, Parent: parent,
		StartNs: int64(start.Sub(l.t0)), DurNs: int64(d), Attr: attr})
	l.mu.Unlock()
}

// durations returns the recorded durations of the named spans whose
// attribute matches (any attribute when attr is empty).
func (l *spanLog) durations(name, attr string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, time.Duration(s.DurNs))
		}
	}
	return out
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	data, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
