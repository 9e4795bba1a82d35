package monet_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"cobra/internal/monet"
)

// Randomized equivalence property for the fused pipelines: for random
// column types, data distributions, and bounds, every fused operator
// (Aggregate, SelectRuns) must reproduce its operator-at-a-time
// reference byte-for-byte — at pool widths 1, 4
// and 8, and while a writer concurrently appends to a different BAT in
// the same store (run with -race this doubles as a locking proof).
// The reference is computed here from first principles: a full scan
// under the kernel's documented order for the qualifying positions,
// then the public BAT operators over explicitly gathered copies.

// refCompare is the documented order: cmp.Compare on two floats,
// Compare otherwise.
func refCompare(a, b monet.Value) int {
	if a.Typ == monet.FloatT && b.Typ == monet.FloatT {
		return cmp.Compare(a.F, b.F)
	}
	return monet.Compare(a, b)
}

// refIdx is the ground-truth range select: ascending positions whose
// tail lies in [lo, hi] under refCompare.
func refIdx(b *monet.BAT, lo, hi monet.Value) []int {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		t := b.Tail(i)
		if refCompare(t, lo) >= 0 && refCompare(t, hi) <= 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// gather builds the materialized intermediate the unfused plan would:
// a fresh BAT holding (head(i), tail(i)) for each qualifying i.
func gather(heads, tails *monet.BAT, idx []int) *monet.BAT {
	out := monet.NewBATCap(heads.HeadType(), tails.TailType(), len(idx))
	for _, i := range idx {
		out.MustInsert(heads.Head(i), tails.Tail(i))
	}
	return out
}

// fusedTrial is one randomized fixture: an OID-headed predicate column
// of a random type, an aligned int aggregate column, and bounds drawn
// from (and around) the data's domain.
type fusedTrial struct {
	store     *monet.Store
	pred, agg *monet.BAT
	predName  string
	aggName   string
	lo, hi    monet.Value
}

func newFusedTrial(t *testing.T, rng *rand.Rand, trial int) *fusedTrial {
	t.Helper()
	n := 512 + rng.Intn(4096)
	if trial%3 == 0 {
		// Cross the parallel threshold so wide pools take the fused
		// morsel fan-out rather than the serial consumer.
		n = monet.ParallelThreshold + rng.Intn(8192)
	}
	tr := &fusedTrial{
		store:    monet.NewStore(),
		predName: fmt.Sprintf("t%d/pred", trial),
		aggName:  fmt.Sprintf("t%d/agg", trial),
	}
	kind := trial % 3
	switch kind {
	case 0: // int predicate
		mod := 50 + rng.Intn(1000)
		tr.pred = monet.NewBATCap(monet.OIDT, monet.IntT, n)
		for i := 0; i < n; i++ {
			tr.pred.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(int64(rng.Intn(mod))))
		}
		a := int64(rng.Intn(mod))
		tr.lo, tr.hi = monet.NewInt(a), monet.NewInt(a+int64(rng.Intn(mod/2+1)))
	case 1: // float predicate, salted with NaN, ±0 and ±Inf
		specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1)}
		tr.pred = monet.NewBATCap(monet.OIDT, monet.FloatT, n)
		for i := 0; i < n; i++ {
			v := rng.Float64() * 1000
			if rng.Intn(50) == 0 {
				v = specials[rng.Intn(len(specials))]
			}
			tr.pred.MustInsert(monet.NewOID(monet.OID(i)), monet.NewFloat(v))
		}
		a := rng.Float64() * 1000
		tr.lo, tr.hi = monet.NewFloat(a), monet.NewFloat(a+rng.Float64()*500)
		switch rng.Intn(4) {
		case 0:
			tr.lo = monet.NewFloat(math.Copysign(0, -1))
		case 1:
			tr.hi = monet.NewFloat(math.Inf(1))
		}
	default: // string predicate, dictionary domain
		labels := 16 + rng.Intn(64)
		tr.pred = monet.NewBATCap(monet.OIDT, monet.StrT, n)
		for i := 0; i < n; i++ {
			tr.pred.MustInsert(monet.NewOID(monet.OID(i)), monet.NewStr(fmt.Sprintf("lab-%03d", rng.Intn(labels))))
		}
		a := rng.Intn(labels)
		tr.lo = monet.NewStr(fmt.Sprintf("lab-%03d", a))
		tr.hi = monet.NewStr(fmt.Sprintf("lab-%03d", a+rng.Intn(labels-a)))
	}
	tr.agg = monet.NewBATCap(monet.OIDT, monet.IntT, n)
	for i := 0; i < n; i++ {
		tr.agg.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(rng.Int63n(1000)))
	}
	for name, b := range map[string]*monet.BAT{tr.predName: tr.pred, tr.aggName: tr.agg} {
		if err := tr.store.Put(name, b); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// checkScalar compares every scalar aggregate op against the gathered
// reference.
func (tr *fusedTrial) checkScalar(t *testing.T, ctx context.Context, idx []int) {
	t.Helper()
	wrap := gather(tr.agg, tr.agg, idx)
	for _, op := range []string{"count", "sum", "avg", "min", "max"} {
		got, fi, err := tr.store.Pipeline(tr.predName, tr.lo, tr.hi).Aggregate(ctx, tr.aggName, op)
		if len(idx) == 0 && (op == "min" || op == "max") {
			if err == nil {
				t.Fatalf("%s over empty selection succeeded with %s", op, got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("fused %s: %v (fi=%v)", op, err, fi)
		}
		var want monet.Value
		switch op {
		case "count":
			want = monet.NewInt(int64(len(idx)))
		case "sum":
			s, err := wrap.Sum()
			if err != nil {
				t.Fatal(err)
			}
			want = monet.NewFloat(s)
		case "avg":
			if len(idx) == 0 {
				want = monet.NewFloat(math.NaN())
			} else {
				s, err := wrap.Avg()
				if err != nil {
					t.Fatal(err)
				}
				want = monet.NewFloat(s)
			}
		case "min":
			want, _ = wrap.Min()
		case "max":
			want, _ = wrap.Max()
		}
		if got.String() != want.String() {
			t.Fatalf("%s: fused %s != reference %s (matched %d rows, %s)", op, got, want, len(idx), fi)
		}
	}
}

// checkRuns compares SelectRuns against RunsOf over the ground-truth
// positions.
func (tr *fusedTrial) checkRuns(t *testing.T, ctx context.Context, idx []int) {
	t.Helper()
	runs, _, fi, err := tr.store.SelectRunsFrom(ctx, tr.predName, 0, tr.lo, tr.hi)
	if err != nil {
		t.Fatalf("select runs: %v (fi=%v)", err, fi)
	}
	want := monet.RunsOf(idx)
	if len(runs) != len(want) {
		t.Fatalf("select runs (%s): %d runs, reference %d", fi, len(runs), len(want))
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Fatalf("select runs (%s): run %d = %+v, reference %+v", fi, i, runs[i], want[i])
		}
	}
}

// TestFusedEquivalenceProperty is the randomized fused ≡ unfused
// property at pool widths 1, 4, and 8, with a concurrent writer
// appending to a separate BAT in a separate store for the duration
// (the kernel supports racing readers OR a writer per BAT, not both on
// one BAT — cross-BAT concurrency is the supported surface).
func TestFusedEquivalenceProperty(t *testing.T) {
	for _, width := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			prev := monet.SetDefaultPoolWorkers(width)
			defer monet.SetDefaultPoolWorkers(prev)

			noise := monet.NewStore()
			if err := noise.Put("noise", monet.NewBAT(monet.Void, monet.IntT)); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := noise.Append("noise", monet.VoidValue(), monet.NewInt(int64(i))); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			defer wg.Wait()
			defer close(stop)

			rng := rand.New(rand.NewSource(int64(1009 * width)))
			ctx := context.Background()
			for trial := 0; trial < 6; trial++ {
				tr := newFusedTrial(t, rng, trial)
				idx := refIdx(tr.pred, tr.lo, tr.hi)
				tr.checkScalar(t, ctx, idx)
				tr.checkRuns(t, ctx, idx)
			}
		})
	}
}

// TestFusedGatePinsFallback pins the fused gate's verdicts: it refuses
// to fuse mixed-type bounds and inexact float sums, and the fallback it
// takes still matches the reference; NaN bounds and NaN rows fuse, since
// the typed loops follow the kernel's float order.
func TestFusedGatePinsFallback(t *testing.T) {
	ctx := context.Background()
	n := 4096

	build := func(tail monet.Type, vals func(i int) monet.Value) (*monet.Store, *monet.BAT) {
		store := monet.NewStore()
		b := monet.NewBATCap(monet.OIDT, tail, n)
		for i := 0; i < n; i++ {
			b.MustInsert(monet.NewOID(monet.OID(i)), vals(i))
		}
		if err := store.Put("pred", b); err != nil {
			t.Fatal(err)
		}
		return store, b
	}

	intVals := func(i int) monet.Value { return monet.NewInt(int64(i % 100)) }

	t.Run("mixed-type bounds", func(t *testing.T) {
		store, b := build(monet.IntT, intVals)
		lo, hi := monet.NewFloat(10), monet.NewFloat(20)
		got, fi, err := store.Pipeline("pred", lo, hi).Aggregate(ctx, "pred", "count")
		if err != nil {
			t.Fatal(err)
		}
		if fi.Fused || fi.Fallback != "mixed-type bounds" {
			t.Fatalf("gate did not pin fallback: %v", fi)
		}
		if want := int64(len(refIdx(b, lo, hi))); got.I != want {
			t.Fatalf("fallback count %d != reference %d", got.I, want)
		}
	})

	t.Run("nan bound", func(t *testing.T) {
		// Under the kernel's order nothing but a NaN lies at or below a
		// NaN upper bound, and no row of this column is NaN.
		store, _ := build(monet.FloatT, func(i int) monet.Value { return monet.NewFloat(float64(i % 100)) })
		lo, hi := monet.NewFloat(10), monet.NewFloat(math.NaN())
		got, fi, err := store.Pipeline("pred", lo, hi).Aggregate(ctx, "pred", "count")
		if err != nil {
			t.Fatal(err)
		}
		if !fi.Fused || got.I != 0 {
			t.Fatalf("[10, NaN] counted %d rows (%v), want 0, fused", got.I, fi)
		}
	})

	t.Run("nan in column", func(t *testing.T) {
		store, b := build(monet.FloatT, func(i int) monet.Value {
			if i == n/2 {
				return monet.NewFloat(math.NaN())
			}
			return monet.NewFloat(float64(i % 100))
		})
		lo, hi := monet.NewFloat(10), monet.NewFloat(20)
		got, fi, err := store.Pipeline("pred", lo, hi).Aggregate(ctx, "pred", "count")
		if err != nil {
			t.Fatal(err)
		}
		if !fi.Fused {
			t.Fatalf("NaN in the column kept the pipeline unfused: %v", fi)
		}
		// The NaN row lies in no range with numeric bounds.
		if want := int64(len(refIdx(b, lo, hi))); got.I != want {
			t.Fatalf("fused count %d != reference %d", got.I, want)
		}
	})

	t.Run("float aggregate column", func(t *testing.T) {
		store, b := build(monet.IntT, intVals)
		fagg := monet.NewBATCap(monet.OIDT, monet.FloatT, n)
		for i := 0; i < n; i++ {
			fagg.MustInsert(monet.NewOID(monet.OID(i)), monet.NewFloat(float64(i)*0.25))
		}
		if err := store.Put("fagg", fagg); err != nil {
			t.Fatal(err)
		}
		lo, hi := monet.NewInt(10), monet.NewInt(20)
		got, fi, err := store.Pipeline("pred", lo, hi).Aggregate(ctx, "fagg", "sum")
		if err != nil {
			t.Fatal(err)
		}
		if fi.Fused {
			t.Fatalf("float aggregate column fused: %v", fi)
		}
		idx := refIdx(b, lo, hi)
		s, err := gather(fagg, fagg, idx).Sum()
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != monet.NewFloat(s).String() {
			t.Fatalf("fallback sum %s != reference %s", got, monet.NewFloat(s))
		}
		// count needs no aggregate reader, so the same predicate still
		// fuses for it.
		_, fi, err = store.Pipeline("pred", lo, hi).Aggregate(ctx, "fagg", "count")
		if err != nil {
			t.Fatal(err)
		}
		if !fi.Fused {
			t.Fatalf("count over float aggregate column did not fuse: %v", fi)
		}
	})
}
