package monet

import (
	"math"
	"slices"
	"sort"
)

// Database cracking: a cracker copy of a numeric column that is
// incrementally range-partitioned as a side effect of each select.
// Every query's bounds become partition boundaries, so the copy
// converges toward sorted exactly along the ranges the workload
// cares about, and repeated selects turn into binary search over the
// boundaries plus a narrow copy — no full scans.
//
// The cracker maintains the invariant that for every boundary k, all
// values left of bpos[k] are strictly less than bvals[k] and all
// values from bpos[k] on are >= bvals[k]. An inclusive select
// [lo, hi] therefore cracks at lo and at the successor of hi and
// returns the positions between the two boundaries.

// cracker is the type-erased face of numCracker the index keeps.
type cracker interface {
	// selectRange returns the match bitmap, over original positions,
	// of the rows whose value lies in p's range.
	selectRange(p *rangePred) []uint64
	// bound returns an upper bound on the rows in p's range read off
	// the existing piece boundaries — exact once both of the range's
	// boundaries exist — without cracking anything.
	bound(p *rangePred) int
	// pieces is the current partition count.
	pieces() int
	// cracks is the number of partition steps performed so far.
	cracks() int
}

// buildCracker copies a numeric column into a cracker, or returns nil
// when the column type cannot be cracked. The column must be NaN-free
// (the owner's zone map proves that first): no range partition can
// represent a value that compares equal to everything.
func buildCracker(col Column) cracker {
	switch c := col.(type) {
	case *intColumn:
		return newNumCracker(slices.Clone(c.v), succInt64)
	case *oidColumn:
		vals := make([]int64, len(c.v))
		for i, o := range c.v {
			vals[i] = int64(o)
		}
		return newNumCracker(vals, succInt64)
	case *floatColumn:
		return newNumCracker(slices.Clone(c.v), succFloat64)
	}
	return nil
}

// succInt64 returns the smallest value greater than v (ok=false at
// the top of the domain, where "<= v" means "everything").
func succInt64(v int64) (int64, bool) {
	if v == math.MaxInt64 {
		return 0, false
	}
	return v + 1, true
}

// succFloat64 is the float successor; +Inf has none.
func succFloat64(v float64) (float64, bool) {
	if math.IsInf(v, 1) {
		return 0, false
	}
	return math.Nextafter(v, math.Inf(1)), true
}

// numCracker is the cracker for one unboxed numeric element type.
type numCracker[T int64 | float64] struct {
	vals []T   // the cracker copy, permuted in place
	pos  []int // original position of vals[i]
	// Piece boundaries, ascending: piece k holds positions
	// [bpos[k-1], bpos[k]) with values in [bvals[k-1], bvals[k]).
	bvals []T
	bpos  []int
	succ  func(T) (T, bool)
	ncr   int // partition steps performed
}

func newNumCracker[T int64 | float64](vals []T, succ func(T) (T, bool)) *numCracker[T] {
	pos := make([]int, len(vals))
	for i := range pos {
		pos[i] = i
	}
	return &numCracker[T]{vals: vals, pos: pos, succ: succ}
}

// crackAt returns the boundary position of v: every value left of it
// is < v, every value from it on is >= v. Unknown boundaries are
// created by partitioning the one piece that straddles v.
func (c *numCracker[T]) crackAt(v T) int {
	k := sort.Search(len(c.bvals), func(i int) bool { return c.bvals[i] >= v })
	if k < len(c.bvals) && c.bvals[k] == v {
		return c.bpos[k]
	}
	lo := 0
	if k > 0 {
		lo = c.bpos[k-1]
	}
	hi := len(c.vals)
	if k < len(c.bpos) {
		hi = c.bpos[k]
	}
	// Two-pointer partition of the straddling piece: < v left, >= v
	// right. Positions move with their values, so pos keeps mapping
	// cracker slots to original rows.
	i, j := lo, hi-1
	for i <= j {
		if c.vals[i] < v {
			i++
			continue
		}
		if c.vals[j] >= v {
			j--
			continue
		}
		c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
		c.pos[i], c.pos[j] = c.pos[j], c.pos[i]
		i++
		j--
	}
	c.bvals = append(c.bvals, v)
	copy(c.bvals[k+1:], c.bvals[k:len(c.bvals)-1])
	c.bvals[k] = v
	c.bpos = append(c.bpos, i)
	copy(c.bpos[k+1:], c.bpos[k:len(c.bpos)-1])
	c.bpos[k] = i
	c.ncr++
	return i
}

// selectVals answers [lo, hi] over the unboxed domain: crack at both
// bounds, then mark the original positions of the partition between
// them in a bitmap — ascending order falls out of the bit layout, so
// nothing is sorted.
func (c *numCracker[T]) selectVals(lo, hi T) []uint64 {
	p1 := c.crackAt(lo)
	p2 := len(c.vals)
	if s, ok := c.succ(hi); ok {
		p2 = c.crackAt(s)
	}
	if p2 < p1 {
		p2 = p1 // empty range (hi < lo)
	}
	words := make([]uint64, (len(c.vals)+63)/64)
	for _, p := range c.pos[p1:p2] {
		words[p>>6] |= 1 << (uint(p) & 63)
	}
	return words
}

// boundVals counts the slots between the nearest existing boundaries
// enclosing [lo, hi]: every value in the range lies there.
func (c *numCracker[T]) boundVals(lo, hi T) int {
	p1, p2 := 0, len(c.vals)
	if k := sort.Search(len(c.bvals), func(i int) bool { return c.bvals[i] > lo }); k > 0 {
		p1 = c.bpos[k-1] // the last boundary <= lo: everything left of it is < lo
	}
	if k := sort.Search(len(c.bvals), func(i int) bool { return c.bvals[i] > hi }); k < len(c.bvals) {
		p2 = c.bpos[k] // the first boundary > hi: everything from it on is > hi
	}
	return max(p2-p1, 0)
}

func (c *numCracker[T]) pieces() int { return len(c.bvals) + 1 }
func (c *numCracker[T]) cracks() int { return c.ncr }

func (c *numCracker[T]) selectRange(p *rangePred) []uint64 {
	switch cc := any(c).(type) {
	case *numCracker[int64]:
		return cc.selectVals(p.ilo, p.ihi)
	case *numCracker[float64]:
		return cc.selectVals(p.flo, p.fhi)
	}
	return nil
}

func (c *numCracker[T]) bound(p *rangePred) int {
	switch cc := any(c).(type) {
	case *numCracker[int64]:
		return cc.boundVals(p.ilo, p.ihi)
	case *numCracker[float64]:
		return cc.boundVals(p.flo, p.fhi)
	}
	return len(c.vals)
}
