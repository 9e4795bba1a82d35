package monet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential property for the zone map's per-zone verdicts: on
// smooth, step, clustered and shuffled int, oid and float columns at
// lengths that are multiples of neither 64, ZoneSize nor MorselSize,
// with bounds at a zone's exact min or max, at ±0 and at ±Inf, every
// zone verdict must agree with the naive scan of that zone's rows, and
// every store road that reads the verdicts — positions, runs and the
// fused count/sum/min/max — must return what the naive scan returns.

var zoneShapes = []string{"smooth", "step", "clustered", "shuffled"}

// zoneColumn builds an n-row column of typ in the given shape. Float
// columns hold -0.0 and +0.0 side by side.
func zoneColumn(rng *rand.Rand, typ Type, shape string, n int) Column {
	val := func(i int) float64 {
		switch shape {
		case "smooth":
			x := 2 * math.Pi * float64(i) / float64(n)
			return 500 + 350*math.Sin(5*x+1) + 150*math.Sin(23*x+2)
		case "step":
			return float64(i/3000*37%401) - 200
		case "clustered":
			return float64(i * 1000 / n)
		}
		return float64(rng.Intn(1000))
	}
	switch typ {
	case FloatT:
		v := make([]float64, n)
		for i := range v {
			if v[i] = val(i) / 100; shape == "step" && v[i] == 0 && i%2 == 1 {
				v[i] = math.Copysign(0, -1)
			}
		}
		return &floatColumn{v: v}
	case OIDT:
		v := make([]OID, n)
		for i := range v {
			v[i] = OID(math.Abs(math.Round(val(i))))
		}
		return &oidColumn{v: v}
	}
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(math.Round(val(i)))
	}
	return &intColumn{v: v}
}

// zoneBoundsOf draws range bounds meant to land on zone edges: a
// zone's exact min or max, ±0, ±Inf (the int64 extremes for integer
// domains), and random pairs.
func zoneBoundsOf(rng *rand.Rand, z *zoneMap, typ Type) [][2]Value {
	nz := numZones(z.n)
	var out [][2]Value
	if typ == FloatT {
		pick := func() float64 {
			zi := rng.Intn(nz)
			if rng.Intn(2) == 0 {
				return z.flts.mins[zi]
			}
			return z.flts.maxs[zi]
		}
		negZero, inf := math.Copysign(0, -1), math.Inf(1)
		for _, b := range [][2]float64{
			{pick(), pick()}, {pick(), pick()}, {pick(), inf}, {-inf, pick()},
			{negZero, 0}, {0, negZero}, {negZero, 3}, {-3, 0}, {-inf, inf}, {inf, inf},
			{rng.Float64() * 10, rng.Float64() * 10},
		} {
			lo, hi := min(b[0], b[1]), max(b[0], b[1])
			if b == [2]float64{0, negZero} {
				lo, hi = b[0], b[1] // equal under Compare, kept in this order
			}
			out = append(out, [2]Value{NewFloat(lo), NewFloat(hi)})
		}
		return out
	}
	box := func(k int64) Value {
		if typ == OIDT {
			return NewOID(OID(k))
		}
		return NewInt(k)
	}
	pick := func() int64 {
		zi := rng.Intn(nz)
		if rng.Intn(2) == 0 {
			return z.ints.mins[zi]
		}
		return z.ints.maxs[zi]
	}
	for _, b := range [][2]int64{
		{pick(), pick()}, {pick(), pick()}, {pick(), math.MaxInt64}, {math.MinInt64, pick()},
		{0, 0}, {math.MinInt64, math.MaxInt64}, {rng.Int63n(1000), rng.Int63n(1000)},
	} {
		lo, hi := min(b[0], b[1]), max(b[0], b[1])
		if typ == OIDT && lo < 0 {
			lo = 0 // a negative payload is no OID a column holds
		}
		out = append(out, [2]Value{box(lo), box(hi)})
	}
	return out
}

func TestPropZoneVerdictsMatchNaiveScan(t *testing.T) {
	lengths := []int{ParallelThreshold + 1, 2*MorselSize + ZoneSize + 5, 5*MorselSize - 3}
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			withWorkers(t, width, func() {
				rng := rand.New(rand.NewSource(int64(1024 + width)))
				ctx := context.Background()
				seen := map[AccessPath]bool{}
				for _, typ := range []Type{IntT, OIDT, FloatT} {
					for _, shape := range zoneShapes {
						n := lengths[rng.Intn(len(lengths))]
						col := zoneColumn(rng, typ, shape, n)
						b := &BAT{head: &voidColumn{n: n}, tail: col}
						s := NewStore()
						if err := s.Put("col", b); err != nil {
							t.Fatal(err)
						}
						z := buildZoneMap(col)
						for _, bd := range zoneBoundsOf(rng, z, typ) {
							lo, hi := bd[0], bd[1]
							what := fmt.Sprintf("%v/%s#%d [%v, %v]", typ, shape, n, lo, hi)
							want := oraclePositions(col, lo, hi)
							checkZoneVerdicts(t, what, z, col, lo, hi)

							idx, info, err := s.SelectPositions("col", lo, hi)
							if err != nil {
								t.Fatal(err)
							}
							sameInts(t, what+" positions", idx, want)
							seen[info.Path] = true
							if info.Path == PathZoneMap && info.ZonesScanned+info.ZonesCovered > info.Zones {
								t.Fatalf("%s: %s counts more zones than the column has", what, info)
							}
							runs, _, err := s.SelectRuns("col", lo, hi)
							if err != nil {
								t.Fatal(err)
							}
							wantRuns := RunsOf(want)
							if len(runs) != len(wantRuns) {
								t.Fatalf("%s runs: %d, oracle %d", what, len(runs), len(wantRuns))
							}
							for k := range runs {
								if runs[k] != wantRuns[k] {
									t.Fatalf("%s run %d: %+v, oracle %+v", what, k, runs[k], wantRuns[k])
								}
							}
							for _, op := range []string{"count", "sum", "min", "max"} {
								got, _, gerr := s.Pipeline("col", lo, hi).Aggregate(ctx, "col", op)
								ref, rerr := aggregatePositions(b, want, op)
								if (gerr != nil) != (rerr != nil) {
									t.Fatalf("%s %s: error %v, oracle %v", what, op, gerr, rerr)
								}
								if gerr == nil && (got.Typ != ref.Typ || got.String() != ref.String() ||
									got.Typ == FloatT && !sameFloat(got.F, ref.F)) {
									t.Fatalf("%s %s = %v, oracle %v", what, op, got, ref)
								}
							}
						}
					}
				}
				if !seen[PathZoneMap] || !seen[PathScan] {
					t.Fatalf("paths taken %v, want both the zone map and the scan", seen)
				}
			})
		})
	}
}

// checkZoneVerdicts checks every zone's verdict for [lo, hi] against
// the rows of that zone: a covered zone's rows all qualify, a disjoint
// zone's none, and a straddling zone's not all.
func checkZoneVerdicts(t *testing.T, what string, z *zoneMap, col Column, lo, hi Value) {
	t.Helper()
	p := compileRange(col, lo, hi)
	ms := z.classify(&p)
	verdict := make([]byte, numZones(z.n)) // 0: disjoint
	for k, m := range ms.morsels {
		for zz := 0; zz < zonesPerMorsel; zz++ {
			zi, bit := m*zonesPerMorsel+zz, uint16(1)<<zz
			switch {
			case zi >= len(verdict):
				if (ms.zones[k].cover|ms.zones[k].scan)&bit != 0 {
					t.Fatalf("%s: a verdict for zone %d, past the column's %d", what, zi, len(verdict))
				}
			case ms.zones[k].cover&bit != 0:
				verdict[zi] = 'c'
			case ms.zones[k].scan&bit != 0:
				verdict[zi] = 's'
			}
		}
	}
	for zi := range verdict {
		from, to := zi*ZoneSize, min((zi+1)*ZoneSize, z.n)
		in := 0
		for i := from; i < to; i++ {
			if v := col.Get(i); Compare(v, lo) >= 0 && Compare(v, hi) <= 0 {
				in++
			}
		}
		// A straddling zone holds a row outside the range (an extreme
		// past a bound); it may hold none inside.
		if verdict[zi] == 'c' && in != to-from || verdict[zi] == 's' && in == to-from || verdict[zi] == 0 && in != 0 {
			t.Fatalf("%s: zone %d has verdict %q, but %d of its %d rows qualify", what, zi, verdict[zi], in, to-from)
		}
	}
}

// TestFusedFloatSumMatchesGather pins the ordered pass over the runs
// that answers sum and avg over a float aggregate column: bit for bit
// what positions + Gather + BAT.Sum/Avg return, at pool widths 1, 2
// and 8, with qualifying counts just under and over MorselSize and
// ParallelThreshold — where BAT.Sum switches from one serial fold to
// per-morsel partials — and the unfused verdict still reported.
func TestFusedFloatSumMatchesGather(t *testing.T) {
	const n = ParallelThreshold + 3*ZoneSize + 11
	rng := rand.New(rand.NewSource(38))
	agg := make([]float64, n)
	for i := range agg {
		agg[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
	}
	clustered, shuffled := make([]int64, n), make([]int64, n)
	for i, p := range rng.Perm(n) {
		clustered[i], shuffled[i] = int64(i), int64(p)
	}
	s := NewStore()
	for name, col := range map[string]Column{
		"agg": &floatColumn{v: agg}, "clustered": &intColumn{v: clustered}, "shuffled": &intColumn{v: shuffled},
	} {
		if err := s.Put(name, &BAT{head: &voidColumn{n: n}, tail: col}); err != nil {
			t.Fatal(err)
		}
	}
	ab := mustGet(t, s, "agg")
	ctx := context.Background()
	for _, width := range []int{1, 2, 8} {
		withWorkers(t, width, func() {
			for _, pred := range []string{"clustered", "shuffled"} {
				for _, count := range []int{0, 1, MorselSize - 1, MorselSize + 1, ParallelThreshold - 1, ParallelThreshold, ParallelThreshold + 1} {
					lo, hi := NewInt(7), NewInt(int64(7+count-1))
					want := naiveIdx(mustGet(t, s, pred), lo, hi)
					for _, op := range []string{"sum", "avg"} {
						what := fmt.Sprintf("w%d %s %d rows %s", width, pred, count, op)
						got, fi, err := s.Pipeline(pred, lo, hi).Aggregate(ctx, "agg", op)
						if err != nil {
							t.Fatal(err)
						}
						ref, _ := aggregatePositions(ab, want, op)
						if !sameFloat(got.F, ref.F) {
							t.Fatalf("%s = %v (%#x), gather %v (%#x)", what, got.F, math.Float64bits(got.F), ref.F, math.Float64bits(ref.F))
						}
						if fi.Fused || fi.Fallback != "inexact or non-integer aggregate column dbl" || fi.Access.Matched != len(want) {
							t.Fatalf("%s reported %s, want the unfused float verdict over %d rows", what, fi, len(want))
						}
					}
				}
			}
		})
	}
}
