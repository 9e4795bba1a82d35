package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span is one timed node of a hierarchical query trace. Every method
// is safe on a nil receiver, so instrumented code can thread an
// optional parent span without nil checks: untraced calls pass nil and
// the span machinery vanishes.
type Span struct {
	name  string
	start time.Time
	id    uint64
	trace string     // trace ID, "" for spans outside a trace
	res   *Resources // shared per-trace accumulator, may be nil

	mu       sync.Mutex
	dur      time.Duration // 0 while the span is open
	attrs    []Attr
	children []*Span
	// attrBuf holds the first attrs in the span itself: most spans
	// carry a handful, and a trace is opened on every request.
	attrBuf [4]Attr
}

// StartSpan starts a root span outside any trace (no trace ID, no
// resource accumulator). Use StartTrace for protocol requests.
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now(), id: spanSeq.Add(1)}
}

// StartTrace starts the root span of a new trace: it is assigned a
// process-unique trace ID and a fresh Resources accumulator, both
// inherited by every child span in the tree.
func StartTrace(name string) *Span {
	return StartTraceAt(name, time.Now())
}

// StartTraceAt is StartTrace for a trace whose first step was timed
// before its root could be opened: the root starts at start.
func StartTraceAt(name string, start time.Time) *Span {
	return &Span{name: name, start: start, id: spanSeq.Add(1), trace: traceID(traceSeq.Add(1)), res: &Resources{}}
}

// traceID renders trace number n as "t" and at least six lowercase hex
// digits, the form fmt's "t%06x" gives.
func traceID(n uint64) string {
	var b [17]byte
	i := len(b)
	for n > 0 || i > len(b)-6 {
		i--
		b[i] = "0123456789abcdef"[n&0xf]
		n >>= 4
	}
	i--
	b[i] = 't'
	return string(b[i:])
}

// StartChild starts and attaches a child span, inheriting the parent's
// trace ID and resource accumulator. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	c.trace = s.trace
	c.res = s.res
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// AddChild attaches a finished child span that started at start and
// ran for d: a step timed before its parent was opened. Nil-safe.
func (s *Span) AddChild(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: start, id: spanSeq.Add(1), trace: s.trace, res: s.res, dur: max(d, time.Nanosecond)}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ID returns the process-unique span ID (0 for nil). Nil-safe.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the trace this span belongs to, or "" when the span
// is outside a trace. Nil-safe.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// Resources returns the trace's shared resource accumulator, or nil
// when the span is outside a trace. Nil-safe.
func (s *Span) Resources() *Resources {
	if s == nil {
		return nil
	}
	return s.res
}

// StartTime returns when the span started. Nil-safe.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = s.attrBuf[:0]
	}
	s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	s.mu.Unlock()
}

// Finish closes the span (idempotent) and returns its duration, which
// is clamped to at least 1 ns so finished spans always report a
// non-zero timing. Nil-safe.
func (s *Span) Finish() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == 0 {
		s.dur = time.Since(s.start)
		if s.dur <= 0 {
			s.dur = time.Nanosecond
		}
	}
	return s.dur
}

// Name returns the span name. Nil-safe.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration (elapsed time if still open).
// Nil-safe.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == 0 {
		return time.Since(s.start)
	}
	return s.dur
}

// Children returns a copy of the child spans. Nil-safe.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attr returns the first value recorded for key ("" when absent).
// Nil-safe.
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Attrs returns a copy of all annotations in recording order.
// Nil-safe.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Render formats the span tree as indented text, one span per line:
//
//	coql.query 1.82ms level=conceptual query="SELECT ..."
//	  coql.eval 1.71ms level=logical
//	    monet.scan 1.60ms level=physical rows=42
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	d := s.dur
	if d == 0 {
		d = time.Since(s.start)
	}
	name := s.name
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(FormatDuration(d))
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(a.Key)
		b.WriteByte('=')
		if strings.ContainsAny(a.Val, " \t\"") {
			fmt.Fprintf(b, "%q", a.Val)
		} else {
			b.WriteString(a.Val)
		}
	}
	b.WriteByte('\n')
	for _, c := range children {
		c.render(b, depth+1)
	}
}

// FormatDuration renders a duration compactly for trace output.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}
