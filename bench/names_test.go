package main

import (
	"testing"
)

// Every metric and workload name in BENCHMARK.json is one the binary
// emits, and the other way round.
func TestBenchmarkFileMatchesBinary(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the binary runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the binary %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the binary emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json %v, the binary %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first and carry the largest bound (%g)", largest)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the binary emits %d", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %v, the binary %v", i, m, d)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
}

func TestWorsening(t *testing.T) {
	for _, c := range []struct {
		better     string
		a, b, want float64
	}{
		{"lower", 10, 11, 0.1}, {"lower", 10, 9, -0.1}, {"higher", 10, 9, 0.1}, {"higher", 10, 12, -0.2}, {"lower", 0, 5, 0},
	} {
		if got := worsening(c.better, c.a, c.b); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("worsening(%s, %g, %g) = %g, want %g", c.better, c.a, c.b, got, c.want)
		}
	}
}
