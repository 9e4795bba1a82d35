// Package benchfmt defines the machine-readable microbenchmark result
// format shared by cobra-bench (which writes it) and benchdiff (which
// compares a PR's results against the committed baseline in CI). A
// benchmark file records the machine shape alongside the per-operation
// results so regressions are judged against numbers from comparable
// hardware.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Result is one benchmarked operation's measurement.
type Result struct {
	// Name identifies the operation, e.g. "ParallelSelect1M".
	Name string `json:"name"`
	// Iterations is the b.N the measurement settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// Width is the kernel pool width the operation was pinned to, when
	// the harness pinned one (0 = unpinned). The file-level GOMAXPROCS
	// records only the scheduler width of the process; a parallel
	// operator benchmarked at pool width 8 on a GOMAXPROCS=1 machine is
	// meaningless to compare against a true 8-core run, and before this
	// field existed such runs were indistinguishable in the JSON.
	Width int `json:"width,omitempty"`
}

// File is one benchmark run: the machine shape plus every operation
// measured.
type File struct {
	// GOOS and GOARCH describe the platform the run executed on.
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// GOMAXPROCS is the scheduler width of the run; parallel-operator
	// numbers are only comparable at similar widths.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Results holds one entry per benchmarked operation.
	Results []Result `json:"results"`
}

// Find returns the named result and whether it is present.
func (f *File) Find(name string) (Result, bool) {
	for _, r := range f.Results {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}

// Oversubscribed reports whether the result was pinned to a pool wider
// than the GOMAXPROCS of the run that produced it: more workers than
// processors measures the scheduler, not the operator, so such a
// number is neither recorded nor compared.
func (f *File) Oversubscribed(r Result) bool { return r.Width > f.GOMAXPROCS }

// Write marshals the file as indented JSON at path. It refuses a file
// holding an oversubscribed result.
func Write(path string, f *File) error {
	for _, r := range f.Results {
		if f.Oversubscribed(r) {
			return fmt.Errorf("benchfmt: refusing to record %s: pool width %d > GOMAXPROCS %d", r.Name, r.Width, f.GOMAXPROCS)
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Read parses a benchmark file from path.
func Read(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchfmt: parse %s: %w", path, err)
	}
	return &f, nil
}

// Delta is the comparison of one operation between a baseline run and
// a current run.
type Delta struct {
	// Name identifies the operation.
	Name string
	// BaseNs and CurNs are ns/op in the baseline and current runs.
	BaseNs float64
	CurNs  float64
	// Ratio is CurNs/BaseNs (1.0 = unchanged; 1.30 = 30% slower).
	Ratio float64
	// Missing is true when the operation exists in the baseline but was
	// not measured in the current run — treated as a regression so a
	// tracked op can't silently drop out of the gate.
	Missing bool
	// BadBaseline is true when the baseline recorded a non-positive
	// ns/op for the operation. Such an entry cannot anchor a ratio, so
	// the op is failed loudly instead of letting Ratio=0 wave any
	// slowdown through.
	BadBaseline bool
	// WidthChanged is true when the two runs pinned the op to different
	// kernel pool widths — the ns/op ratio would compare incomparable
	// configurations, so the op fails instead.
	WidthChanged bool
	// BaseWidth and CurWidth are the pinned pool widths (0 = unpinned).
	BaseWidth int
	CurWidth  int
	// Oversubscribed is true when either run pinned the op to a pool
	// wider than that run's GOMAXPROCS: the number does not measure the
	// operator at that width, so the op fails instead of being compared.
	Oversubscribed bool
	// BaseAllocs and CurAllocs are allocs/op in the two runs, and
	// AllocRatio is CurAllocs/BaseAllocs (0 when the baseline recorded
	// no allocations — a zero-alloc op cannot anchor a ratio, so growth
	// from zero is flagged through AllocsGrewFromZero instead).
	BaseAllocs int64
	CurAllocs  int64
	AllocRatio float64
	// AllocsGrewFromZero is true when the baseline was allocation-free
	// but the current run allocates.
	AllocsGrewFromZero bool
	// Regressed is true when the op breaches the comparison threshold.
	Regressed bool
}

// Compare evaluates the current run against the baseline. Every
// baseline operation yields a Delta, ordered by name; an op regresses
// when its ns/op grows by more than threshold (0.25 = fail above +25%),
// disappears from the current run, has a non-positive baseline
// ns/op (a corrupt entry that cannot anchor a ratio), or was pinned to
// a different kernel pool width than the baseline (the two numbers
// measure incomparable configurations), or to a width above either
// run's GOMAXPROCS (File.Oversubscribed). Operations only present in
// the current run are ignored — new benchmarks don't need a baseline
// to land.
func Compare(baseline, current *File, threshold float64) []Delta {
	deltas := make([]Delta, 0, len(baseline.Results))
	for _, base := range baseline.Results {
		d := Delta{Name: base.Name, BaseNs: base.NsPerOp, BaseWidth: base.Width}
		cur, ok := current.Find(base.Name)
		if !ok {
			d.Missing = true
			d.Regressed = true
			deltas = append(deltas, d)
			continue
		}
		d.CurNs = cur.NsPerOp
		d.CurWidth = cur.Width
		if base.Width != cur.Width {
			d.WidthChanged = true
			d.Regressed = true
			deltas = append(deltas, d)
			continue
		}
		if baseline.Oversubscribed(base) || current.Oversubscribed(cur) {
			d.Oversubscribed = true
			d.Regressed = true
			deltas = append(deltas, d)
			continue
		}
		d.BaseAllocs, d.CurAllocs = base.AllocsPerOp, cur.AllocsPerOp
		if base.AllocsPerOp > 0 {
			d.AllocRatio = float64(cur.AllocsPerOp) / float64(base.AllocsPerOp)
		} else if cur.AllocsPerOp > 0 {
			d.AllocsGrewFromZero = true
		}
		if base.NsPerOp > 0 {
			d.Ratio = cur.NsPerOp / base.NsPerOp
			d.Regressed = d.Ratio > 1+threshold
		} else {
			d.BadBaseline = true
			d.Regressed = true
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}
