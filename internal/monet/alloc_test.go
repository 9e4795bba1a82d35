package monet

import (
	"context"
	"runtime"
	"testing"
)

// Allocation-regression tests: the parallel select must not allocate
// per ROW — only per MORSEL (a handful of fixed-size scratch buffers
// each) — and the joins and the fused aggregate allocate a fixed count
// per operation. The bounds below are per-operation ceilings, with
// generous headroom for pool scheduling noise; per-row append or map
// growth would put these one to two orders of magnitude higher.

// allocsPerOp measures total heap allocations per run of fn across all
// goroutines (runtime.MemStats, not testing.AllocsPerRun, because the
// morsel work happens on pool workers).
func allocsPerOp(runs int, fn func()) float64 {
	fn() // warm caches, pool, lazily built state
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

const allocRows = 1 << 16 // 64 morsels at MorselSize 1024

func allocBudget(perMorsel int) float64 {
	return float64(numMorsels(allocRows)*perMorsel + 256)
}

func TestSelectAllocsPerMorsel(t *testing.T) {
	var got float64
	withWorkers(t, 4, func() {
		bat := benchIntBAT(allocRows, 1000)
		lo, hi := NewInt(100), NewInt(199)
		got = allocsPerOp(5, func() { bat.Select(lo, hi) })
	})
	// Morsel scratch: one preallocated index slice per morsel, plus
	// fan-out closures, spans, and the result BAT.
	if max := allocBudget(8); got > max {
		t.Fatalf("Select allocates %.0f/op, budget %.0f (per-row growth crept back in?)", got, max)
	}
}

// TestHashJoinAllocsFlatInRows pins the int-keyed hash join to a
// fixed allocation count per operation: the build over the right head
// (slot map, offsets, positions), the two pair slices presized to the
// probe side, two gathers and the result. Probe sides of 16k and 64k
// rows against the same 4 096-key build side must allocate alike.
func TestHashJoinAllocsFlatInRows(t *testing.T) {
	const keys = 1 << 12
	right := NewBATCap(IntT, IntT, keys)
	for i := 0; i < keys; i++ {
		right.MustInsert(NewInt(int64(i)), NewInt(int64(i)*2))
	}
	var got []float64
	for _, rows := range []int{allocRows / 4, allocRows} {
		left := benchIntBAT(rows, keys)
		got = append(got, allocsPerOp(5, func() {
			if _, err := left.Join(right); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if small, large := got[0], got[1]; large > small+4 || large > 64 {
		t.Fatalf("hash join allocates %.0f/op over %d probe rows and %.0f/op over %d, budget 64 and flat (per-row growth back?)",
			small, allocRows/4, large, allocRows)
	}
}

// TestVoidHeadJoinAllocs pins join, semijoin and kdiff against a void
// head to a fixed allocation count per operation: the probe is a
// bounds check on the OID and the output two positional gathers, so
// nothing is allocated per row — where a per-probe position slice once
// cost one allocation per row (~65k/op here).
func TestVoidHeadJoinAllocs(t *testing.T) {
	withWorkers(t, 4, func() {
		left := NewBATCap(Void, OIDT, allocRows)
		right := NewBATCap(Void, IntT, allocRows/2)
		hashed := NewBATCap(OIDT, IntT, allocRows/2) // right's rows under a materialized head
		for i := 0; i < allocRows; i++ {
			left.MustInsert(VoidValue(), NewOID(OID((i*7)%allocRows)))
			if i < allocRows/2 {
				right.MustInsert(VoidValue(), NewInt(int64(i)))
				hashed.MustInsert(NewOID(OID(i)), NewInt(int64(i)))
			}
		}
		sel := left.Reverse() // [oid, void]: oid heads probe right's void head
		for name, op := range map[string]func(other *BAT) (*BAT, error){
			"join":          left.Join,
			"semijoin":      sel.Semijoin,
			"kdiff":         sel.KDiff,
			"semijoin/void": left.Semijoin, // void heads probe a shorter void head
			"kdiff/void":    left.KDiff,
		} {
			got, err := op(right)
			if err != nil {
				t.Fatal(err)
			}
			want, err := op(hashed)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Fatalf("void-head %s gives %s, the hash probe %s", name, got, want)
			}
			for i := 0; i < got.Len(); i++ {
				if !Equal(got.Head(i), want.Head(i)) || !Equal(got.Tail(i), want.Tail(i)) {
					t.Fatalf("void-head %s row %d differs from the hash probe", name, i)
				}
			}
			allocs := allocsPerOp(5, func() {
				if _, err := op(right); err != nil {
					t.Fatal(err)
				}
			})
			if max := allocBudget(8); allocs > max {
				t.Fatalf("void-head %s allocates %.0f/op, budget %.0f (per-row probe allocation back?)", name, allocs, max)
			}
		}
	})
}

// TestFusedAggregateAllocs pins the fused select→sum pipeline's
// steady-state allocation count: consuming index-answered runs into a
// scalar must not materialize positions or gather an intermediate.
func TestFusedAggregateAllocs(t *testing.T) {
	var got float64
	withWorkers(t, 4, func() {
		store := NewStore()
		val := NewBATCap(Void, IntT, allocRows)
		for i := 0; i < allocRows; i++ {
			val.MustInsert(VoidValue(), NewInt(int64(i%1000)))
		}
		if err := store.Put("bench/val", val); err != nil {
			t.Fatal(err)
		}
		p := store.Pipeline("bench/val", NewInt(100), NewInt(199))
		ctx := context.Background()
		got = allocsPerOp(5, func() {
			if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
				t.Fatal(err)
			}
		})
	})
	// Capture, gate probe, span bookkeeping, and the scalar merge — all
	// fixed-count; measured steady state is ~30/op.
	if got > 256 {
		t.Fatalf("fused Aggregate allocates %.0f/op, budget 256 (materialization crept back in?)", got)
	}
}
