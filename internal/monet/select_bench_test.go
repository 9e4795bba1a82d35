package monet

import (
	"context"
	"math"
	"testing"
)

// The benchmarks below run the range selects of the kernel_scan
// workload (bench/) in process, over its column shape: 2^20 samples of
// two slow sinusoids scaled into [0, 1]. The zone map is built before
// the timer starts, as the first select of a served column builds it.

func sinusoidStore(b *testing.B) *Store {
	const n = 1 << 20
	v := make([]float64, n)
	for i := range v {
		x := 2 * math.Pi * float64(i) / n
		v[i] = 0.5 + 0.35*math.Sin(5*x+1) + 0.15*math.Sin(23*x+2)
	}
	s := NewStore()
	if err := s.Put("s0", &BAT{head: &voidColumn{n: n}, tail: &floatColumn{v: v}}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.BuildZoneMap("s0"); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSelectRunsSinusoid1M is FEATURE('s0') > 0.5: about half the
// rows qualify, in a few dozen runs.
func BenchmarkSelectRunsSinusoid1M(b *testing.B) {
	s := sinusoidStore(b)
	lo, hi := NewFloat(math.Nextafter(0.5, math.Inf(1))), NewFloat(math.Inf(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.SelectRuns("s0", lo, hi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregateCountSinusoid1M is bat("s0").select(a, a+0.05).count
// over a sweep of a.
func BenchmarkAggregateCountSinusoid1M(b *testing.B) {
	s := sinusoidStore(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := float64(i%90) / 100
		if _, _, err := s.Pipeline("s0", NewFloat(a), NewFloat(a+0.05)).Aggregate(ctx, "s0", "count"); err != nil {
			b.Fatal(err)
		}
	}
}
