package monet

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Differential property for the typed range-select kernel: for every
// column type, with NaN rows, NaN/±Inf bounds, -0.0, mixed-type,
// inverted and empty ranges, at lengths around MorselSize and
// ParallelThreshold and pool widths 1, 2 and 8, every select path and
// every typed fold must reproduce — byte for byte — what the boxed
// Column.Get loops they replaced return, under oracleCompare. Those
// loops survive here, as the oracle.

// oracleCompare is the order the kernel documents: cmp.Compare on two
// floats (NaN first and equal to NaN, -0 equal to +0), Compare's type
// tags and payloads otherwise.
func oracleCompare(a, b Value) int {
	if a.Typ == FloatT && b.Typ == FloatT {
		return cmp.Compare(a.F, b.F)
	}
	return Compare(a, b)
}

// oraclePositions is the boxed range scan.
func oraclePositions(c Column, lo, hi Value) []int {
	idx := []int{}
	for i := 0; i < c.Len(); i++ {
		if t := c.Get(i); oracleCompare(t, lo) >= 0 && oracleCompare(t, hi) <= 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// oracleMorsels calls fn for each morsel range the folds fan out over:
// MorselSize chunks when the column goes parallel, else one range.
func oracleMorsels(n int, fn func(lo, hi int)) {
	if _, ok := poolFor(n); !ok {
		fn(0, n)
		return
	}
	for lo := 0; lo < n; lo += MorselSize {
		fn(lo, min(lo+MorselSize, n))
	}
}

// oracleSum is the boxed Sum: per-morsel partials added in morsel
// order.
func oracleSum(c Column) float64 {
	s := 0.0
	oracleMorsels(c.Len(), func(lo, hi int) {
		part := 0.0
		for i := lo; i < hi; i++ {
			part += c.Get(i).Float()
		}
		s += part
	})
	return s
}

// oracleBest is the boxed bestIdx: per-morsel first-occurrence
// extremes under the strict oracleCompare, merged in morsel order.
func oracleBest(c Column, sign int) int {
	best := -1
	oracleMorsels(c.Len(), func(lo, hi int) {
		bi := lo
		for i := lo + 1; i < hi; i++ {
			if sign*oracleCompare(c.Get(i), c.Get(bi)) > 0 {
				bi = i
			}
		}
		if best < 0 || sign*oracleCompare(c.Get(bi), c.Get(best)) > 0 {
			best = bi
		}
	})
	return best
}

var propTypes = []Type{Void, OIDT, IntT, FloatT, StrT, BoolT, BlobT}

// propValue draws a value of the given type from a small domain salted
// with the type's awkward members.
func propValue(rng *rand.Rand, typ Type) Value {
	switch typ {
	case Void, OIDT:
		if rng.Intn(50) == 0 {
			return NewOID(OID(1<<63 + uint64(rng.Intn(3)))) // negative as the int64 Compare orders by
		}
		return NewOID(OID(rng.Intn(300)))
	case IntT:
		switch rng.Intn(60) {
		case 0:
			return NewInt(math.MinInt64)
		case 1:
			return NewInt(math.MaxInt64)
		}
		return NewInt(int64(rng.Intn(300) - 100))
	case FloatT:
		switch rng.Intn(40) {
		case 0:
			return NewFloat(math.NaN())
		case 1:
			return NewFloat(math.Inf(1))
		case 2:
			return NewFloat(math.Inf(-1))
		case 3:
			return NewFloat(math.Copysign(0, -1))
		case 4:
			return NewFloat(0)
		}
		return NewFloat(float64(rng.Intn(300)-100) / 4)
	case StrT:
		return NewStr(fmt.Sprintf("k%02d", rng.Intn(40)))
	case BoolT:
		return NewBool(rng.Intn(2) == 0)
	default:
		return NewBlob([]byte(fmt.Sprintf("b%02d", rng.Intn(40))))
	}
}

// propColumnOf builds an n-row column of typ; clustered columns ascend
// (loosely) so zone maps prune and cover, and a clustered float column
// holds a NaN now and then in every fourth zone, so some zones are
// never covered and the rest can be.
func propColumnOf(rng *rand.Rand, typ Type, n int, clustered bool) Column {
	c := NewColumnCap(typ, n)
	for i := 0; i < n; i++ {
		v := propValue(rng, typ)
		if clustered {
			switch typ {
			case IntT:
				v = NewInt(int64(i/97 + rng.Intn(5)))
			case FloatT:
				v = NewFloat(float64(i/97) + rng.Float64())
				if i/ZoneSize%4 == 1 && rng.Intn(100) == 0 {
					v = NewFloat(math.NaN())
				}
			}
		}
		c.Append(v)
	}
	return c
}

// propBounds draws bounds for a column of typ: mostly same-typed and
// ordered, sometimes inverted, equal, NaN, or of another type.
func propBounds(rng *rand.Rand, typ Type) (Value, Value) {
	typ = materialType(typ)
	a, b := propValue(rng, typ), propValue(rng, typ)
	switch rng.Intn(12) {
	case 0:
		return a, a
	case 1:
		return propValue(rng, propTypes[rng.Intn(len(propTypes))]), b
	case 2:
		return a, propValue(rng, propTypes[rng.Intn(len(propTypes))])
	case 3:
		if typ == FloatT {
			return NewFloat(math.NaN()), b
		}
	case 4:
		if typ == FloatT {
			return a, NewFloat(math.NaN())
		}
	case 5: // leave unordered: often inverted, i.e. empty
		return a, b
	}
	if oracleCompare(b, a) < 0 {
		a, b = b, a
	}
	return a, b
}

// sameFloat is bit equality, except that any NaN equals any NaN: which
// operand's payload an addition of two NaNs keeps is the compiler's
// choice of instruction operands, not the kernel's.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

func sameInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d positions, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: position %d is %d, oracle %d", what, i, got[i], want[i])
		}
	}
}

var propLengths = []int{0, 1, 63, 64, 65, MorselSize - 1, MorselSize, MorselSize + 1,
	ParallelThreshold - 1, ParallelThreshold, ParallelThreshold + 65, 3*MorselSize + 777}

func TestTypedKernelMatchesBoxedOracle(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			prev := SetDefaultPoolWorkers(width)
			defer SetDefaultPoolWorkers(prev)
			rng := rand.New(rand.NewSource(int64(4200 + width)))
			for _, typ := range propTypes {
				for _, n := range propLengths {
					col := propColumnOf(rng, typ, n, n%2 == 1)
					b := &BAT{head: &voidColumn{n: n}, tail: col}
					for q := 0; q < 6; q++ {
						lo, hi := propBounds(rng, typ)
						what := fmt.Sprintf("%v#%d [%v, %v]", typ, n, lo, hi)
						want := oraclePositions(col, lo, hi)

						sameInts(t, what+" colSelectIdx", colSelectIdx(col, lo, hi), want)
						sel := b.Select(lo, hi)
						if sel.Len() != len(want) {
							t.Fatalf("%s Select: %d rows, oracle %d", what, sel.Len(), len(want))
						}
						for k, i := range want {
							if !Equal(sel.Head(k), NewOID(OID(i))) || sel.Tail(k).String() != col.Get(i).String() {
								t.Fatalf("%s Select row %d: [%v,%v], oracle [%d,%v]", what, k, sel.Head(k), sel.Tail(k), i, col.Get(i))
							}
						}
						if u := b.Uselect(lo, hi); u.Len() != len(want) || u.TailType() != Void {
							t.Fatalf("%s Uselect: [%v]#%d, oracle %d", what, u.TailType(), u.Len(), len(want))
						}

						pl := selectPlan{pred: compileRange(col, lo, hi), ms: morselSet{n: n}}
						runs, matched := pl.runs(nil)
						wantRuns := RunsOf(want)
						if matched != len(want) || len(runs) != len(wantRuns) {
							t.Fatalf("%s runs: %d runs over %d rows, oracle %d over %d", what, len(runs), matched, len(wantRuns), len(want))
						}
						for k := range runs {
							if runs[k] != wantRuns[k] {
								t.Fatalf("%s run %d: %+v, oracle %+v", what, k, runs[k], wantRuns[k])
							}
						}
						var perMorsel []int
						for k := 0; k < pl.ms.slots(); k++ {
							mlo, mhi := pl.ms.rowRange(k)
							pl.morselRuns(k, mlo, mhi, func(s, e int) {
								for i := s; i < e; i++ {
									perMorsel = append(perMorsel, i)
								}
							})
						}
						sameInts(t, what+" morselRuns", perMorsel, want)
					}
				}
			}
		})
	}
}

// TestTypedFoldsMatchBoxedOracle covers Sum/Avg/Min/Max and the zone
// map's typed min/max pass.
func TestTypedFoldsMatchBoxedOracle(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			prev := SetDefaultPoolWorkers(width)
			defer SetDefaultPoolWorkers(prev)
			rng := rand.New(rand.NewSource(int64(977 + width)))
			for _, typ := range propTypes {
				for _, n := range propLengths[1:] {
					col := propColumnOf(rng, typ, n, n%3 == 0)
					b := &BAT{head: &voidColumn{n: n}, tail: col}
					what := fmt.Sprintf("%v#%d", typ, n)
					for _, sign := range []int{1, -1} {
						if got, want := b.bestIdx(sign), oracleBest(col, sign); got != want {
							t.Fatalf("%s bestIdx(%d) = %d, oracle %d", what, sign, got, want)
						}
					}
					if b.requireNumericTail("sum") == nil {
						got, err := b.Sum()
						if want := oracleSum(col); err != nil || !sameFloat(got, want) {
							t.Fatalf("%s Sum = %v (%v), oracle %v", what, got, err, want)
						}
						avg, _ := b.Avg()
						if want := oracleSum(col) / float64(n); !sameFloat(avg, want) {
							t.Fatalf("%s Avg = %v, oracle %v", what, avg, want)
						}
					}
					if !zoneMappable(col) {
						continue
					}
					z := buildZoneMap(col)
					for zi := 0; zi < numZones(n); zi++ {
						lo, hi := zi*ZoneSize, min((zi+1)*ZoneSize, n)
						mn, mx := col.Get(lo), col.Get(lo)
						for i := lo; i < hi; i++ {
							if v := col.Get(i); oracleCompare(v, mn) < 0 {
								mn = v
							} else if oracleCompare(v, mx) > 0 {
								mx = v
							}
						}
						zmn, zmx := zoneSummary(z, col, zi)
						if oracleCompare(zmn, mn) != 0 || oracleCompare(zmx, mx) != 0 {
							t.Fatalf("%s zone %d summary [%v, %v], oracle [%v, %v]", what, zi, zmn, zmx, mn, mx)
						}
					}
				}
			}
		})
	}
}

// zoneSummary boxes zone zi's unboxed summary the way col's Get boxes
// its values.
func zoneSummary(z *zoneMap, col Column, zi int) (mn, mx Value) {
	switch col.(type) {
	case *intColumn:
		return NewInt(z.ints.mins[zi]), NewInt(z.ints.maxs[zi])
	case *oidColumn:
		return NewOID(OID(z.ints.mins[zi])), NewOID(OID(z.ints.maxs[zi]))
	}
	return NewFloat(z.flts.mins[zi]), NewFloat(z.flts.maxs[zi])
}

// TestAccessPathsMatchBoxedOracle drives the store-level selects —
// positions and runs, through whatever path the gate picks as the
// column warms up, with several connections on one column at once —
// against the oracle.
func TestAccessPathsMatchBoxedOracle(t *testing.T) {
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", width), func(t *testing.T) {
			prev := SetDefaultPoolWorkers(width)
			defer SetDefaultPoolWorkers(prev)
			rng := rand.New(rand.NewSource(int64(31337 + width)))
			seen := map[AccessPath]bool{}
			for _, typ := range []Type{OIDT, IntT, FloatT, StrT} {
				for _, clustered := range []bool{false, true} {
					n := 3*MorselSize + rng.Intn(MorselSize)
					col := propColumnOf(rng, typ, n, clustered)
					s := NewStore()
					if err := s.Put("col", &BAT{head: &voidColumn{n: n}, tail: col}); err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 6; round++ {
						var wg sync.WaitGroup
						for g := 0; g < 4; g++ {
							lo, hi := propBounds(rng, typ)
							wg.Add(1)
							go func() {
								defer wg.Done()
								want := oraclePositions(col, lo, hi)
								idx, info, err := s.SelectPositions("col", lo, hi)
								if err != nil {
									t.Error(err)
									return
								}
								if len(idx) != len(want) {
									t.Errorf("%v [%v, %v] %s: %d positions, oracle %d", typ, lo, hi, info, len(idx), len(want))
									return
								}
								for i := range idx {
									if idx[i] != want[i] {
										t.Errorf("%v [%v, %v] %s: position %d is %d, oracle %d", typ, lo, hi, info, i, idx[i], want[i])
										return
									}
								}
								runs, fi, err := s.SelectRuns("col", lo, hi)
								if err != nil {
									t.Error(err)
									return
								}
								wantRuns := RunsOf(want)
								if len(runs) != len(wantRuns) {
									t.Errorf("%v [%v, %v] %s: %d runs, oracle %d", typ, lo, hi, fi, len(runs), len(wantRuns))
									return
								}
								for i := range runs {
									if runs[i] != wantRuns[i] {
										t.Errorf("%v [%v, %v] %s: run %d is %+v, oracle %+v", typ, lo, hi, fi, i, runs[i], wantRuns[i])
										return
									}
								}
							}()
						}
						wg.Wait()
						if t.Failed() {
							t.FailNow()
						}
						info, err := s.PlanAccess("col", NewInt(0), NewInt(0))
						if err != nil {
							t.Fatal(err)
						}
						seen[info.Path] = true
					}
					ii, _ := s.IndexInfo("col")
					for _, k := range []string{"zonemap", "dict"} {
						if v, _ := ii.Find(NewStr(k)); v.Str() != "none" {
							seen[map[string]AccessPath{"zonemap": PathZoneMap, "dict": PathDict}[k]] = true
						}
					}
				}
			}
			for _, p := range []AccessPath{PathZoneMap, PathDict} {
				if !seen[p] {
					t.Fatalf("property run never built the %v structure", p)
				}
			}
		})
	}
}

// indexState reads one IndexInfo entry.
func indexState(t *testing.T, s *Store, name, key string) string {
	t.Helper()
	ii, err := s.IndexInfo(name)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := ii.Find(NewStr(key))
	return v.Str()
}

// TestSelectCounterCountsEachQueryOnce pins the select counter to its
// one owner: a pipeline that falls back to the operator-at-a-time path
// is one select, not two, so a string column moves to the dictionary
// on its second query and not on its first.
func TestSelectCounterCountsEachQueryOnce(t *testing.T) {
	n := 3 * MorselSize
	s := NewStore()
	s.Put("pred", modIntBAT(n, 1000))
	fagg := NewBATCap(Void, FloatT, n)
	for i := 0; i < n; i++ {
		fagg.MustInsert(VoidValue(), NewFloat(float64(i)/4))
	}
	s.Put("fagg", fagg)
	ctx := context.Background()
	lo, hi := NewInt(100), NewInt(109)
	const queries = 2
	for q := 1; q <= queries; q++ {
		_, fi, err := s.Pipeline("pred", lo, hi).Aggregate(ctx, "fagg", "sum")
		if err != nil {
			t.Fatal(err)
		}
		if fi.Fused {
			t.Fatalf("float aggregate column fused: %s", fi)
		}
		if got := indexState(t, s, "pred", "selects"); got != fmt.Sprint(q) {
			t.Fatalf("selects = %s after %d fallback pipelines", got, q)
		}
	}
	if _, fi, err := s.SelectRuns("pred", NewFloat(1), NewFloat(2)); err != nil || fi.Fused {
		t.Fatalf("mixed-type SelectRuns: fused=%v err=%v", fi.Fused, err)
	}
	if got := indexState(t, s, "pred", "selects"); got != fmt.Sprint(queries+1) {
		t.Fatalf("selects = %s after %d selects", got, queries+1)
	}
}

// TestFloatOrderIsCmpCompare pins cmp.Compare's float order on the
// operators that each once kept their own: range select, sort,
// extremes, group and join.
func TestFloatOrderIsCmpCompare(t *testing.T) {
	nan, negz, inf := math.NaN(), math.Copysign(0, -1), math.Inf(1)
	floats := func(vs ...float64) *BAT {
		b := NewBATCap(Void, FloatT, len(vs))
		for _, v := range vs {
			b.MustInsert(VoidValue(), NewFloat(v))
		}
		return b
	}
	t.Run("select", func(t *testing.T) {
		b := floats(3, nan, 1)
		if sel := b.Select(NewFloat(2), NewFloat(inf)); sel.Len() != 1 || sel.Tail(0).F != 3 {
			t.Fatalf("select(2, +Inf) over {3, NaN, 1} = %s", sel.Dump(0))
		}
		if u := b.Uselect(NewFloat(2), NewFloat(inf)); u.Len() != 1 || u.Head(0).OID() != 0 {
			t.Fatalf("uselect(2, +Inf) over {3, NaN, 1} = %s", u.Dump(0))
		}
		if sel := b.Select(NewFloat(nan), NewFloat(nan)); sel.Len() != 1 || sel.Head(0).OID() != 1 {
			t.Fatalf("select(NaN, NaN) over {3, NaN, 1} = %s", sel.Dump(0))
		}
	})
	t.Run("sort", func(t *testing.T) {
		vs := []float64{3, nan, 1, nan, 0.5, 2, negz, 0, inf, -inf, negz}
		want := slices.Clone(vs)
		slices.SortStableFunc(want, cmp.Compare[float64])
		for _, sorted := range []*BAT{floats(vs...).SortTail(), floats(vs...).Reverse().SortHead().Reverse()} {
			for i, w := range want {
				if !sameFloat(sorted.Tail(i).F, w) || math.Signbit(sorted.Tail(i).F) != math.Signbit(w) {
					t.Fatalf("sorted %s, want %v", sorted.Dump(0), want)
				}
			}
		}
	})
	for _, width := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("min max w%d", width), func(t *testing.T) {
			prev := SetDefaultPoolWorkers(width)
			defer SetDefaultPoolWorkers(prev)
			for _, n := range []int{3, ParallelThreshold + 777} {
				for _, at := range []int{0, 1, n / 2, n - 1} {
					vs := make([]float64, n)
					wantMax := 0.0
					for i := range vs {
						vs[i] = float64(i%1000) + 1
						if i != at {
							wantMax = max(wantMax, vs[i])
						}
					}
					vs[at] = nan
					b := floats(vs...)
					mn, _ := b.Min()
					mx, _ := b.Max()
					am, _ := b.ArgMin()
					if !math.IsNaN(mn.F) || am.OID() != OID(at) || mx.F != wantMax {
						t.Fatalf("%d rows, NaN at %d: min %v at %v, max %v (want NaN at %d, max %v)", n, at, mn, am, mx, at, wantMax)
					}
				}
			}
		})
	}
	t.Run("group", func(t *testing.T) {
		g, err := floats(0, negz, nan, nan).Reverse().GroupCount()
		if err != nil || g.Len() != 2 || g.Tail(0).I != 2 || g.Tail(1).I != 2 || !math.IsNaN(g.Head(1).F) {
			t.Fatalf("GroupCount{0, -0, NaN, NaN} = %s (%v)", g.Dump(0), err)
		}
	})
	t.Run("join", func(t *testing.T) {
		right := floats(0, nan, 7).Reverse() // [dbl, oid]
		j, err := floats(negz, nan, 1).Join(right)
		if err != nil || j.Len() != 2 || j.Head(0).OID() != 0 || j.Tail(0).OID() != 0 || j.Head(1).OID() != 1 || j.Tail(1).OID() != 1 {
			t.Fatalf("join {-0, NaN, 1} with {0, NaN, 7} = %s (%v)", j.Dump(0), err)
		}
	})
}
