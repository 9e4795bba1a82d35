package monet

import (
	"cmp"
	"fmt"
	"math"
	"strconv"

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
// ordered scalar columns: cmp.Less is Compare's strict order, NaN the
// least value.
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
		if wantMax && cmp.Less(v[bi], x) || !wantMax && cmp.Less(x, v[bi]) {
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

// GroupCount computes the per-group association count as [g, int]:
// one row per distinct head, in first-occurrence order. Heads group
// under Equal: by their MIL literal, except that a float groups by its
// floatKey (every NaN one group, -0.0 with +0.0) and a blob, whose
// literal shows only its length, by its bytes.
func (b *BAT) GroupCount() (*BAT, error) {
	slot := map[string]int{}
	var heads []Value
	var counts []int64
	for i := 0; i < b.Len(); i++ {
		h := b.head.Get(i)
		k := h.String()
		switch h.Typ {
		case FloatT:
			k = strconv.FormatUint(floatKey(h.F), 16)
		case BlobT:
			k = string(h.B)
		}
		g, seen := slot[k]
		if !seen {
			g = len(heads)
			slot[k] = g
			heads = append(heads, h)
			counts = append(counts, 0)
		}
		counts[g]++
	}
	out := NewBATCap(materialType(b.head.Type()), IntT, len(heads))
	for g, h := range heads {
		out.MustInsert(h, NewInt(counts[g]))
	}
	return out, nil
}

// Histogram returns a BAT [tail-value, int] counting occurrences of
// each distinct tail value.
func (b *BAT) Histogram() *BAT {
	out, _ := b.Reverse().GroupCount() // GroupCount has no failing input
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
