// Package obs is the dependency-free telemetry substrate of the Cobra
// VDBMS: atomic counters and gauges, striped latency histograms with
// quantile estimation, hierarchical trace spans, and a slow-query log.
// Every level of the stack (COQL engine, preprocessor, condition
// evaluator, MIL interpreter, Monet kernel, HMM/DBN engines, and the wal
// durability subsystem with its record/byte counters, fsync latency
// histogram and recovery gauges) records into the package-level
// Default registry; the server exposes it over the TCP protocol
// (STATS, TRACE, SLOWLOG) and over HTTP (/metrics plus
// net/http/pprof). The kernel's morsel scheduler reports under
// monet.pool.*: task/inline/morsel counters, queue-depth and worker
// gauges, and per-operator-family latency plus parallel-speedup
// histograms (speedup in milli-×, 2000 = 2×).
//
// The package deliberately imports only the standard library so any
// layer — including the Monet kernel at the bottom of the dependency
// graph — can record metrics without cycles.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous atomic value (e.g. current fan-out width).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics. Metric handles are get-or-create and
// stable: callers cache the returned pointers on hot paths.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry all built-in instrumentation
// records into.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{name: name}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{name: name}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{name: name}
	r.hists[name] = h
	return h
}

// C returns a counter from the Default registry.
func C(name string) *Counter { return Default.Counter(name) }

// G returns a gauge from the Default registry.
func G(name string) *Gauge { return Default.Gauge(name) }

// H returns a histogram from the Default registry.
func H(name string) *Histogram { return Default.Histogram(name) }

// Timer starts a timer recording into the Default registry's named
// histogram on invocation of the returned func:
//
//	defer obs.Timer("dbn.filter.latency")()
func Timer(name string) func() {
	h := H(name)
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Snapshot is a point-in-time copy of a registry's metrics.
type Snapshot struct {
	Counters   map[string]int64    `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms map[string]HistStat `json:"histograms"`
}

// Snapshot copies every metric's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistStat, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = h.Stat()
	}
	return s
}

// WriteText renders the registry as sorted, line-oriented plain text
// (the STATS protocol format): "counter <name> <value>",
// "gauge <name> <value>", and "hist <name> count=... p50_ns=...".
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	var lines []string
	for n, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", n, v))
	}
	for n, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("gauge %s %d", n, v))
	}
	for n, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf(
			"hist %s count=%d mean_ns=%.0f p50_ns=%.0f p95_ns=%.0f p99_ns=%.0f max_ns=%d",
			n, h.Count, h.MeanNs, h.P50Ns, h.P95Ns, h.P99Ns, h.MaxNs))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
