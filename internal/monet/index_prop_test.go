package monet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Property test for the adaptive access paths: any interleaving of
// SelectPositions/Append/Put/Drop over a store whose columns end up
// zone-mapped and dictionary-encoded must return exactly the
// positions the naive serial scan returns — per query, at any pool
// width. The per-op sequence is serial (the store's documented
// guarantee for index consistency is reads-after-writes, as for plain
// scans); the parallelism under test is the morsel fan-out inside
// each select, which the -race runs at widths 4 and 8 exercise.

// propColumn mirrors one named BAT as the plain tail slice the model
// scans naively.
type propColumn struct {
	typ   Type
	tails []Value
}

func (pc *propColumn) naive(lo, hi Value) []int {
	idx := []int{}
	for i, t := range pc.tails {
		if Compare(t, lo) >= 0 && Compare(t, hi) <= 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

func (pc *propColumn) toBAT() *BAT {
	b := NewBATCap(Void, pc.typ, len(pc.tails))
	for _, t := range pc.tails {
		b.MustInsert(VoidValue(), t)
	}
	return b
}

// randValue draws a tail value for a column type; floats include the
// occasional NaN, which a zone summary holds as its zone's minimum.
func randValue(rng *rand.Rand, typ Type) Value {
	switch typ {
	case IntT:
		return NewInt(int64(rng.Intn(500)))
	case FloatT:
		if rng.Intn(200) == 0 {
			return NewFloat(math.NaN())
		}
		return NewFloat(float64(rng.Intn(500)) / 4)
	default:
		return NewStr(fmt.Sprintf("label-%02d", rng.Intn(40)))
	}
}

// randBounds draws select bounds, occasionally inverted (empty range)
// or mixed-type (scan-fallback path).
func randBounds(rng *rand.Rand, typ Type) (Value, Value) {
	if rng.Intn(20) == 0 {
		return NewFloat(1), NewInt(3) // mixed types: must fall back
	}
	a, b := randValue(rng, typ), randValue(rng, typ)
	if rng.Intn(10) != 0 && Compare(b, a) < 0 {
		a, b = b, a // mostly well-ordered, sometimes empty
	}
	return a, b
}

func genColumn(rng *rand.Rand, typ Type, n int) *propColumn {
	pc := &propColumn{typ: typ, tails: make([]Value, n)}
	for i := range pc.tails {
		pc.tails[i] = randValue(rng, typ)
	}
	return pc
}

func TestPropIndexedSelectsMatchNaiveScan(t *testing.T) {
	for _, width := range []int{1, 4, 8} {
		width := width
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			prev := SetDefaultPoolWorkers(width)
			defer SetDefaultPoolWorkers(prev)

			rng := rand.New(rand.NewSource(int64(1000 + width)))
			s := NewStore()
			model := map[string]*propColumn{}
			names := []string{"ints", "floats", "labels"}
			types := map[string]Type{"ints": IntT, "floats": FloatT, "labels": StrT}
			for _, name := range names {
				pc := genColumn(rng, types[name], 2*MorselSize+rng.Intn(MorselSize))
				model[name] = pc
				s.Put(name, pc.toBAT())
			}
			// Hot ranges per name so the workload repeats predicates
			// and the gate moves string columns to the dict path.
			hot := map[string][2]Value{}
			for _, name := range names {
				lo, hi := randBounds(rng, types[name])
				hot[name] = [2]Value{lo, hi}
			}

			ops := 400
			if testing.Short() {
				ops = 120
			}
			seenPaths := map[AccessPath]bool{}
			for op := 0; op < ops; op++ {
				name := names[rng.Intn(len(names))]
				pc := model[name]
				switch r := rng.Intn(100); {
				case r < 70: // select
					var lo, hi Value
					if h, ok := hot[name]; ok && rng.Intn(2) == 0 {
						lo, hi = h[0], h[1]
					} else {
						lo, hi = randBounds(rng, types[name])
					}
					idx, info, err := s.SelectPositions(name, lo, hi)
					if pc == nil {
						if err == nil {
							t.Fatalf("op %d: select on dropped %q succeeded", op, name)
						}
						continue
					}
					if err != nil {
						t.Fatalf("op %d: select %q: %v", op, name, err)
					}
					seenPaths[info.Path] = true
					want := pc.naive(lo, hi)
					if len(idx) != len(want) {
						t.Fatalf("op %d: %q [%v,%v] path=%v: %d rows, naive %d",
							op, name, lo, hi, info.Path, len(idx), len(want))
					}
					for i := range idx {
						if idx[i] != want[i] {
							t.Fatalf("op %d: %q [%v,%v] path=%v: position %d is %d, naive %d",
								op, name, lo, hi, info.Path, i, idx[i], want[i])
						}
					}
				case r < 90: // append
					if pc == nil {
						continue
					}
					v := randValue(rng, types[name])
					if err := s.Append(name, VoidValue(), v); err != nil {
						t.Fatalf("op %d: append %q: %v", op, name, err)
					}
					pc.tails = append(pc.tails, v)
				case r < 95: // put (replace)
					npc := genColumn(rng, types[name], 2*MorselSize+rng.Intn(MorselSize))
					model[name] = npc
					s.Put(name, npc.toBAT())
				default: // drop, then usually revive later
					if pc == nil {
						continue
					}
					if err := s.Drop(name); err != nil {
						t.Fatalf("op %d: drop %q: %v", op, name, err)
					}
					model[name] = nil
					if rng.Intn(2) == 0 {
						npc := genColumn(rng, types[name], 2*MorselSize+rng.Intn(MorselSize))
						model[name] = npc
						s.Put(name, npc.toBAT())
					}
				}
			}
			// The workload must actually have exercised the index
			// paths, or the property is vacuous.
			for _, p := range []AccessPath{PathScan, PathDict} {
				if !seenPaths[p] {
					t.Fatalf("property run never took the %v path", p)
				}
			}
		})
	}
}
