package monet

import (
	"fmt"
	"math"

	"cobra/internal/obs"
)

// opAggregate counts kernel aggregate invocations (sum/avg/min/max).
var opAggregate = obs.C("monet.bat.aggregate")

// Count returns the number of associations.
func (b *BAT) Count() int64 { return int64(b.Len()) }

// Sum returns the sum of the tail column as float64. Non-numeric tails
// yield an error. Large BATs sum morsel-parallel with the per-morsel
// partials added in morsel order, so the result is the same for every
// pool width (and equals the serial fold exactly whenever the values
// are exactly representable, e.g. integer-valued tails).
func (b *BAT) Sum() (float64, error) {
	opAggregate.Inc()
	if err := b.requireNumericTail("sum"); err != nil {
		return 0, err
	}
	if p, ok := poolFor(b.Len()); ok {
		parts := make([]float64, numMorsels(b.Len()))
		runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
			parts[m] = sumRange(b.tail, lo, hi)
		})
		s := 0.0
		for _, v := range parts {
			s += v
		}
		return s, nil
	}
	return sumRange(b.tail, 0, b.Len()), nil
}

// sumRange folds rows [lo, hi) of a numeric column into a float64 sum
// in row order — the values Get(i).Float() would yield, read unboxed.
func sumRange(c Column, lo, hi int) float64 {
	s := 0.0
	switch c := c.(type) {
	case *floatColumn:
		for _, x := range c.v[lo:hi] {
			s += x
		}
	case *intColumn:
		s = sumInt(c.v[lo:hi])
	case *oidColumn:
		s = sumInt(c.v[lo:hi])
	case *boolColumn:
		for _, x := range c.v[lo:hi] {
			s += float64(b2u(x))
		}
	}
	return s
}

func sumInt[T intElem](v []T) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(int64(x))
	}
	return s
}

// Avg returns the mean of the tail column; NaN for an empty BAT.
func (b *BAT) Avg() (float64, error) {
	opAggregate.Inc()
	if err := b.requireNumericTail("avg"); err != nil {
		return 0, err
	}
	if b.Len() == 0 {
		return math.NaN(), nil
	}
	s, _ := b.Sum()
	return s / float64(b.Len()), nil
}

// bestIdx returns the position of the extreme tail under sign (+1 for
// max, -1 for min), preferring the first occurrence on ties — the same
// position the serial strict-compare scan picks. Large BATs find a
// per-morsel best in parallel, then merge the morsel winners in morsel
// order with the same strict compare.
func (b *BAT) bestIdx(sign int) int {
	if p, ok := poolFor(b.Len()); ok {
		parts := make([]int, numMorsels(b.Len()))
		runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
			parts[m] = bestRange(b.tail, lo, hi, sign)
		})
		bi := parts[0]
		for _, c := range parts[1:] {
			if sign*Compare(b.tail.Get(c), b.tail.Get(bi)) > 0 {
				bi = c
			}
		}
		return bi
	}
	return bestRange(b.tail, 0, b.Len(), sign)
}

// bestRange is bestIdx over rows [lo, hi) of one column, typed for the
// ordered scalar columns: the strict raw comparison agrees with
// Compare, NaN included (neither replaces nor is replaced).
func bestRange(c Column, lo, hi, sign int) int {
	switch c := c.(type) {
	case *intColumn:
		return lo + bestInt(c.v[lo:hi], sign > 0)
	case *oidColumn:
		return lo + bestInt(c.v[lo:hi], sign > 0)
	case *floatColumn:
		return lo + bestOrd(c.v[lo:hi], sign > 0)
	case *strColumn:
		return lo + bestOrd(c.v[lo:hi], sign > 0)
	}
	bi := lo
	for i := lo + 1; i < hi; i++ {
		if sign*Compare(c.Get(i), c.Get(bi)) > 0 {
			bi = i
		}
	}
	return bi
}

func bestInt[T intElem](v []T, wantMax bool) int {
	bi, best := 0, int64(v[0])
	for i, x := range v {
		if k := int64(x); wantMax && k > best || !wantMax && k < best {
			bi, best = i, k
		}
	}
	return bi
}

func bestOrd[T ordElem](v []T, wantMax bool) int {
	bi := 0
	for i, x := range v {
		if wantMax && x > v[bi] || !wantMax && x < v[bi] {
			bi = i
		}
	}
	return bi
}

// Max returns the largest tail value; ok is false for an empty BAT.
func (b *BAT) Max() (Value, bool) {
	opAggregate.Inc()
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.tail.Get(b.bestIdx(1)), true
}

// Min returns the smallest tail value; ok is false for an empty BAT.
func (b *BAT) Min() (Value, bool) {
	opAggregate.Inc()
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.tail.Get(b.bestIdx(-1)), true
}

// ArgMax returns the head whose tail is largest (MIL: reverse().find(max));
// ok is false for an empty BAT.
func (b *BAT) ArgMax() (Value, bool) {
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.head.Get(b.bestIdx(1)), true
}

// ArgMin returns the head whose tail is smallest.
func (b *BAT) ArgMin() (Value, bool) {
	if b.Len() == 0 {
		return Value{}, false
	}
	return b.head.Get(b.bestIdx(-1)), true
}

// Group clusters associations by tail value and returns a BAT
// [head, oid] mapping each head to its group id, plus a BAT
// [oid, tail] mapping group ids to representative tail values.
func (b *BAT) Group() (members, groups *BAT) {
	members = NewBATCap(materialType(b.head.Type()), OIDT, b.Len())
	groups = NewBAT(OIDT, b.tail.Type())
	ids := map[string]OID{}
	next := OID(0)
	for i := 0; i < b.Len(); i++ {
		t := b.tail.Get(i)
		key := t.String()
		id, ok := ids[key]
		if !ok {
			id = next
			next++
			ids[key] = id
			groups.MustInsert(NewOID(id), t)
		}
		members.MustInsert(b.head.Get(i), NewOID(id))
	}
	return members, groups
}

// GroupSum computes, for a BAT [g, x] of numeric x, the per-group sum,
// returned as a BAT [g, dbl].
func (b *BAT) GroupSum() (*BAT, error) {
	return b.groupedFold("sum", func(acc, x float64) float64 { return acc + x }, 0, false)
}

// GroupCount computes the per-group association count as [g, int].
// Large inputs count morsel-parallel; per-morsel counts merge in
// morsel order, preserving the serial first-occurrence group order.
// Integer-domain and string heads take the arena-backed fast path:
// per-morsel group tables live in recycled scratch and only the
// exact-size partials are allocated.
func (b *BAT) GroupCount() (*BAT, error) {
	counts := map[string]int64{}
	order := []Value{}
	if p, ok := poolFor(b.Len()); ok {
		if out, ok := b.groupParFast(p, nil, 0, true); ok {
			return out, nil
		}
		parts := make([]groupPart[int64], numMorsels(b.Len()))
		runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
			// Sized for the worst case (every row its own group) so the
			// per-row loop never grows a slice or rehashes the map; the
			// scratch is MorselSize-bounded and dies with the morsel.
			part := groupPart[int64]{
				order: make([]Value, 0, hi-lo),
				keys:  make([]string, 0, hi-lo),
				accs:  make(map[string]int64, hi-lo),
			}
			for i := lo; i < hi; i++ {
				h := b.head.Get(i)
				k := h.String()
				if _, seen := part.accs[k]; !seen {
					part.order = append(part.order, h)
					part.keys = append(part.keys, k)
				}
				part.accs[k]++
			}
			parts[m] = part
		})
		for _, part := range parts {
			for gi, k := range part.keys {
				if _, seen := counts[k]; !seen {
					order = append(order, part.order[gi])
				}
				counts[k] += part.accs[k]
			}
		}
	} else {
		for i := 0; i < b.Len(); i++ {
			h := b.head.Get(i)
			k := h.String()
			if _, seen := counts[k]; !seen {
				order = append(order, h)
			}
			counts[k]++
		}
	}
	out := NewBAT(materialType(b.head.Type()), IntT)
	for _, h := range order {
		out.MustInsert(h, NewInt(counts[h.String()]))
	}
	return out, nil
}

// GroupMax computes the per-group maximum tail as [g, dbl].
func (b *BAT) GroupMax() (*BAT, error) {
	return b.groupedFold("max", math.Max, math.Inf(-1), true)
}

// GroupMin computes the per-group minimum tail as [g, dbl].
func (b *BAT) GroupMin() (*BAT, error) {
	return b.groupedFold("min", math.Min, math.Inf(1), true)
}

// GroupAvg computes the per-group mean tail as [g, dbl].
func (b *BAT) GroupAvg() (*BAT, error) {
	sums, err := b.GroupSum()
	if err != nil {
		return nil, err
	}
	counts, _ := b.GroupCount()
	out := NewBAT(materialType(b.head.Type()), FloatT)
	for i := 0; i < sums.Len(); i++ {
		h := sums.Head(i)
		c, _ := counts.Find(h)
		out.MustInsert(h, NewFloat(sums.Tail(i).Float()/float64(c.Int())))
	}
	return out, nil
}

// groupPart is the per-morsel partial state of a parallel grouped
// aggregation: the groups in first-occurrence order within the morsel
// (order holds the head values, keys their string keys) and the
// per-group partial accumulators.
type groupPart[T any] struct {
	order []Value
	keys  []string
	accs  map[string]T
}

// groupedFold folds the numeric tail per head group with f (which must
// be associative with identity init, so it doubles as the combiner for
// per-morsel partials). Large inputs fold morsel-parallel; partials
// merge in morsel order, so group order and — for exact folds like
// max/min or integer-valued sums — group values match the serial path
// for every pool width.
func (b *BAT) groupedFold(name string, f func(acc, x float64) float64, init float64, _ bool) (*BAT, error) {
	if err := b.requireNumericTail(name); err != nil {
		return nil, err
	}
	accs := map[string]float64{}
	order := []Value{}
	if p, ok := poolFor(b.Len()); ok {
		if out, ok := b.groupParFast(p, f, init, false); ok {
			return out, nil
		}
		parts := make([]groupPart[float64], numMorsels(b.Len()))
		runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
			// Sized for the worst case (every row its own group) so the
			// per-row loop never grows a slice or rehashes the map; the
			// scratch is MorselSize-bounded and dies with the morsel.
			part := groupPart[float64]{
				order: make([]Value, 0, hi-lo),
				keys:  make([]string, 0, hi-lo),
				accs:  make(map[string]float64, hi-lo),
			}
			for i := lo; i < hi; i++ {
				h := b.head.Get(i)
				k := h.String()
				if _, seen := part.accs[k]; !seen {
					part.order = append(part.order, h)
					part.keys = append(part.keys, k)
					part.accs[k] = init
				}
				part.accs[k] = f(part.accs[k], b.tail.Get(i).Float())
			}
			parts[m] = part
		})
		for _, part := range parts {
			for gi, k := range part.keys {
				if _, seen := accs[k]; !seen {
					order = append(order, part.order[gi])
					accs[k] = init
				}
				accs[k] = f(accs[k], part.accs[k])
			}
		}
	} else {
		for i := 0; i < b.Len(); i++ {
			h := b.head.Get(i)
			k := h.String()
			if _, seen := accs[k]; !seen {
				order = append(order, h)
				accs[k] = init
			}
			accs[k] = f(accs[k], b.tail.Get(i).Float())
		}
	}
	out := NewBAT(materialType(b.head.Type()), FloatT)
	for _, h := range order {
		out.MustInsert(h, NewFloat(accs[h.String()]))
	}
	return out, nil
}

// floatReader returns a raw float64 accessor over a numeric column,
// producing exactly the values Get(i).Float() would, without boxing.
// It returns nil for non-numeric columns.
func floatReader(c Column) func(i int) float64 {
	switch c := c.(type) {
	case *floatColumn:
		v := c.v
		return func(i int) float64 { return v[i] }
	case *intColumn:
		v := c.v
		return func(i int) float64 { return float64(v[i]) }
	case *oidColumn:
		v := c.v
		return func(i int) float64 { return float64(v[i]) }
	case *boolColumn:
		v := c.v
		return func(i int) float64 {
			if v[i] {
				return 1
			}
			return 0
		}
	}
	return nil
}

// strGroupPart is the per-morsel partial of a string-keyed fast
// grouped fold: group keys in first-occurrence order plus per-group
// partial counts and accumulators.
type strGroupPart struct {
	keys   []string
	accs   []float64
	counts []int64
}

// groupParFast is the allocation-disciplined morsel-parallel grouped
// fold. Heads with an integer domain (int, oid, bool) group on the
// raw int64 payload and string heads on the raw string — both
// bijective with the generic path's Value.String key, so group
// composition, first-occurrence order and values are identical to the
// generic morsel merge. Per-morsel group tables live in arena scratch
// (slot maps plus flat key/count/acc buffers); only the exact-size
// partials and the output BAT are allocated. Returns ok=false for
// head types it cannot key, sending the caller to the generic path.
func (b *BAT) groupParFast(p *Pool, f func(acc, x float64) float64, init float64, counting bool) (*BAT, bool) {
	var valAt func(i int) float64
	if !counting {
		if valAt = floatReader(b.tail); valAt == nil {
			return nil, false
		}
	}
	if keyAt := intReader(b.head); keyAt != nil {
		return b.groupParInt(p, keyAt, valAt, f, init, counting), true
	}
	if sc, ok := b.head.(*strColumn); ok {
		return b.groupParStr(p, sc.v, valAt, f, init, counting), true
	}
	return nil, false
}

// groupParInt is the integer-keyed arm of groupParFast.
func (b *BAT) groupParInt(p *Pool, keyAt func(i int) int64, valAt func(i int) float64, f func(acc, x float64) float64, init float64, counting bool) *BAT {
	parts := make([]fusedGroupPart, numMorsels(b.Len()))
	runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
		a := GetArena()
		slots := a.IntSlots()
		keys := a.Int64s(hi - lo)
		counts := a.Int64s(hi - lo)
		var accs []float64
		if !counting {
			accs = a.Floats(hi - lo)
		}
		ng := 0
		for i := lo; i < hi; i++ {
			k := keyAt(i)
			slot, seen := slots[k]
			if !seen {
				slot = int32(ng)
				//cobravet:allow allochot // arena slot map: one insert per DISTINCT group, bounded by group count not rows, and the map is recycled across morsels
				slots[k] = slot
				keys[ng] = k
				counts[ng] = 0
				if !counting {
					accs[ng] = init
				}
				ng++
			}
			counts[slot]++
			if !counting {
				accs[slot] = f(accs[slot], valAt(i))
			}
		}
		// Partials outlive the morsel: copy exact-size out of the arena.
		part := fusedGroupPart{
			keys:   append([]int64(nil), keys[:ng]...),
			counts: append([]int64(nil), counts[:ng]...),
		}
		if !counting {
			part.accs = append([]float64(nil), accs[:ng]...)
		}
		parts[m] = part
		PutArena(a)
	})
	total := 0
	for _, part := range parts {
		total += len(part.keys)
	}
	a := GetArena()
	gslots := a.IntSlots()
	keys := a.Int64s(total)
	counts := a.Int64s(total)
	var accs []float64
	if !counting {
		accs = a.Floats(total)
	}
	ng := 0
	for _, part := range parts {
		for gi, k := range part.keys {
			slot, seen := gslots[k]
			if !seen {
				slot = int32(ng)
				gslots[k] = slot
				keys[ng] = k
				counts[ng] = 0
				if !counting {
					accs[ng] = init
				}
				ng++
			}
			counts[slot] += part.counts[gi]
			if !counting {
				accs[slot] = f(accs[slot], part.accs[gi])
			}
		}
	}
	ht := b.head.Type()
	var out *BAT
	if counting {
		out = NewBATCap(materialType(ht), IntT, ng)
		for g := 0; g < ng; g++ {
			out.MustInsert(typedInt(ht, keys[g]), NewInt(counts[g]))
		}
	} else {
		out = NewBATCap(materialType(ht), FloatT, ng)
		for g := 0; g < ng; g++ {
			out.MustInsert(typedInt(ht, keys[g]), NewFloat(accs[g]))
		}
	}
	PutArena(a)
	return out
}

// groupParStr is the string-keyed arm of groupParFast. Grouping on the
// raw string skips both the Get boxing and the strconv.Quote of the
// generic path's Value.String key.
func (b *BAT) groupParStr(p *Pool, sv []string, valAt func(i int) float64, f func(acc, x float64) float64, init float64, counting bool) *BAT {
	parts := make([]strGroupPart, numMorsels(b.Len()))
	runMorsels(p, b.Len(), hPoolAggLat, hPoolAggSpd, func(m, lo, hi int) {
		a := GetArena()
		slots := a.StrSlots()
		keys := a.Strs(hi - lo)
		counts := a.Int64s(hi - lo)
		var accs []float64
		if !counting {
			accs = a.Floats(hi - lo)
		}
		ng := 0
		for i := lo; i < hi; i++ {
			k := sv[i]
			slot, seen := slots[k]
			if !seen {
				slot = int32(ng)
				//cobravet:allow allochot // arena slot map: one insert per DISTINCT group, bounded by group count not rows, and the map is recycled across morsels
				slots[k] = slot
				keys[ng] = k
				counts[ng] = 0
				if !counting {
					accs[ng] = init
				}
				ng++
			}
			counts[slot]++
			if !counting {
				accs[slot] = f(accs[slot], valAt(i))
			}
		}
		// Partials outlive the morsel: copy exact-size out of the arena.
		part := strGroupPart{
			keys:   append([]string(nil), keys[:ng]...),
			counts: append([]int64(nil), counts[:ng]...),
		}
		if !counting {
			part.accs = append([]float64(nil), accs[:ng]...)
		}
		parts[m] = part
		PutArena(a)
	})
	total := 0
	for _, part := range parts {
		total += len(part.keys)
	}
	a := GetArena()
	gslots := a.StrSlots()
	keys := a.Strs(total)
	counts := a.Int64s(total)
	var accs []float64
	if !counting {
		accs = a.Floats(total)
	}
	ng := 0
	for _, part := range parts {
		for gi, k := range part.keys {
			slot, seen := gslots[k]
			if !seen {
				slot = int32(ng)
				gslots[k] = slot
				keys[ng] = k
				counts[ng] = 0
				if !counting {
					accs[ng] = init
				}
				ng++
			}
			counts[slot] += part.counts[gi]
			if !counting {
				accs[slot] = f(accs[slot], part.accs[gi])
			}
		}
	}
	var out *BAT
	if counting {
		out = NewBATCap(StrT, IntT, ng)
		for g := 0; g < ng; g++ {
			out.MustInsert(NewStr(keys[g]), NewInt(counts[g]))
		}
	} else {
		out = NewBATCap(StrT, FloatT, ng)
		for g := 0; g < ng; g++ {
			out.MustInsert(NewStr(keys[g]), NewFloat(accs[g]))
		}
	}
	PutArena(a)
	return out
}

// Histogram returns a BAT [tail-value, int] counting occurrences of
// each distinct tail value.
func (b *BAT) Histogram() *BAT {
	return b.Reverse().mustGroupCount()
}

func (b *BAT) mustGroupCount() *BAT {
	out, err := b.GroupCount()
	if err != nil {
		panic(err)
	}
	return out
}

func (b *BAT) requireNumericTail(op string) error {
	switch b.tail.Type() {
	case IntT, FloatT, BoolT, OIDT:
		return nil
	default:
		return fmt.Errorf("%w: %s over %v tail", ErrTypeMismatch, op, b.tail.Type())
	}
}
