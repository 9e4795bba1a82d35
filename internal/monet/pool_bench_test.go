package monet

import (
	"context"
	"runtime"
	"testing"
)

// The Benchmark{Serial,Parallel}* pairs below measure the same
// operator bodies with the kernel pool pinned to one worker versus
// widened to at least four, so `go test -bench` shows the morsel
// scheduler's speedup directly; cobra-bench -run micro captures the
// same pairs into BENCH_baseline.json for the CI bench-gate. The hash
// join is serial at every width, so it has only the Serial entry.

func benchWidth() int {
	if n := runtime.GOMAXPROCS(0); n > 4 {
		return n
	}
	return 4
}

func withPoolWidth(b *testing.B, width int, fn func(b *testing.B)) {
	prev := SetDefaultPoolWorkers(width)
	defer SetDefaultPoolWorkers(prev)
	fn(b)
}

func benchIntBAT(n, mod int) *BAT {
	bat := NewBATCap(Void, IntT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(VoidValue(), NewInt(int64(i%mod)))
	}
	return bat
}

func selectBody(b *testing.B) {
	bat := benchIntBAT(1<<20, 1000)
	lo, hi := NewInt(100), NewInt(199)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Select(lo, hi)
	}
}

func BenchmarkSerialSelect1M(b *testing.B)   { withPoolWidth(b, 1, selectBody) }
func BenchmarkParallelSelect1M(b *testing.B) { withPoolWidth(b, benchWidth(), selectBody) }

func joinBody(b *testing.B) {
	const keys = 100_000
	left := benchIntBAT(1<<20, keys)
	right := NewBATCap(IntT, IntT, keys)
	for i := 0; i < keys; i++ {
		right.MustInsert(NewInt(int64(i)), NewInt(int64(i)*2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialJoin1M(b *testing.B) { withPoolWidth(b, 1, joinBody) }

func sumBody(b *testing.B) {
	bat := benchIntBAT(1<<20, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.Sum(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialSum1M(b *testing.B)   { withPoolWidth(b, 1, sumBody) }
func BenchmarkParallelSum1M(b *testing.B) { withPoolWidth(b, benchWidth(), sumBody) }

// benchFusedStore builds the fused-pipeline fixture: "bench/val", a
// 1M-row int column cycling [0, 1000).
func benchFusedStore(b *testing.B) *Store {
	store := NewStore()
	if err := store.Put("bench/val", benchIntBAT(1<<20, 1000)); err != nil {
		b.Fatal(err)
	}
	return store
}

// unfusedSelectAggBody is the operator-at-a-time baseline the fused
// pipeline is judged against: materialize the filtered BAT, then sum
// the intermediate. Same ~10% selectivity workload as the fused body.
func unfusedSelectAggBody(b *testing.B) {
	bat := benchIntBAT(1<<20, 1000)
	lo, hi := NewInt(100), NewInt(199)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bat.Select(lo, hi).Sum(); err != nil {
			b.Fatal(err)
		}
	}
}

// fusedSelectAggBody runs the fused select→sum pipeline: qualifying
// runs feed the sum per morsel with no materialized intermediate. One
// untimed call warms the store's adaptive index state.
func fusedSelectAggBody(b *testing.B) {
	store := benchFusedStore(b)
	p := store.Pipeline("bench/val", NewInt(100), NewInt(199))
	ctx := context.Background()
	if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnfusedSelectAgg1M(b *testing.B) { withPoolWidth(b, 1, unfusedSelectAggBody) }

func BenchmarkFusedSelectAgg1M(b *testing.B)   { withPoolWidth(b, 1, fusedSelectAggBody) }
func BenchmarkFusedSelectAgg1MW4(b *testing.B) { withPoolWidth(b, 4, fusedSelectAggBody) }
func BenchmarkFusedSelectAgg1MW8(b *testing.B) { withPoolWidth(b, 8, fusedSelectAggBody) }
