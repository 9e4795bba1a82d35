package monet

import (
	"bytes"
	"math"
	"math/bits"
	"slices"

	"cobra/internal/obs"
)

// The typed range-select kernel: the one scan under every select path
// (BAT.Select/Uselect, the adaptive access paths, the fused
// pipelines). A rangePred resolves the concrete column and the bounds'
// types once per operator; bits then runs one tight loop per morsel
// that writes a match bitmap — no per-row Value, no Compare, no
// predicate closure — and type-agnostic consumers turn bitmaps into
// counts (popcount), exact-size position lists (expandBits) or maximal
// runs (bitRuns).
//
// The predicate is Compare's, bit for bit. Integer domains (int, oid,
// bit, void, dictionary codes) order by the int64 payload Value.I
// carries, as Compare does — OIDs included. Floats test
// !(v < lo) && !(v > hi): Compare answers 0 whenever either operand is
// NaN, so a NaN row qualifies under any bounds and a NaN bound does not
// constrain, which is exactly what the negated comparisons compute. A
// bound of another type compares by type tag alone, so it admits every
// row or none and is resolved before the loop.

// intElem are the vectors compared through their int64 payload.
type intElem interface{ ~int64 | ~uint64 | ~int32 }

// ordElem are the vectors compared directly.
type ordElem interface{ ~float64 | ~string }

// rangePred is an inclusive range predicate compiled against one
// concrete column. Bounds the predicate does not constrain sit at the
// domain's extremes, so index structures can read them too.
type rangePred struct {
	col      Column
	codes    []int32 // set: match dictionary codes in [ilo, ihi] instead of col
	ilo, ihi int64
	flo, fhi float64
	slo, shi string
	empty    bool // resolved before the loop: no row qualifies
	mixed    bool // a bound of another type: resolved all-or-nothing
	// match is set for the predicates too rare to earn a loop of their
	// own (bit, blob and void columns; hash probes): still unboxed, but
	// through a per-row closure.
	match func(i int) bool
}

// compileRange compiles [lo, hi] against col.
func compileRange(col Column, lo, hi Value) rangePred {
	p := rangePred{col: col, ilo: math.MinInt64, ihi: math.MaxInt64, flo: math.Inf(-1), fhi: math.Inf(1)}
	t := materialType(col.Type()) // a void column reads as its OIDs
	hasLo, hasHi := lo.Typ == t, hi.Typ == t
	p.mixed = !hasLo || !hasHi
	if !hasLo && t < lo.Typ || !hasHi && t > hi.Typ || col.Len() == 0 {
		p.empty = true
		return p
	}
	switch c := col.(type) {
	case *floatColumn:
		if hasLo && lo.F == lo.F {
			p.flo = lo.F
		}
		if hasHi && hi.F == hi.F {
			p.fhi = hi.F
		}
	case *strColumn:
		// Strings and blobs have no greatest value to stand for an
		// unconstrained upper bound; the column's own maximum does.
		p.slo, p.shi = lo.S, hi.S
		if !hasLo {
			p.slo = ""
		}
		if !hasHi {
			p.shi = slices.Max(c.v)
		}
	case *blobColumn:
		blo, bhi := lo.B, hi.B
		if !hasLo {
			blo = nil
		}
		if !hasHi {
			bhi = slices.MaxFunc(c.v, bytes.Compare)
		}
		p.match = func(i int) bool { return bytes.Compare(c.v[i], blo) >= 0 && bytes.Compare(c.v[i], bhi) <= 0 }
	default:
		if hasLo {
			p.ilo = lo.I
		}
		if hasHi {
			p.ihi = hi.I
		}
		p.empty = p.ilo > p.ihi
		switch c := col.(type) {
		case *boolColumn:
			mf, mt := p.ilo <= 0 && 0 <= p.ihi, p.ilo <= 1 && 1 <= p.ihi
			p.match = func(i int) bool { return c.v[i] && mt || !c.v[i] && mf }
		case *voidColumn:
			ilo, ihi := p.ilo, p.ihi
			p.match = func(i int) bool { return int64(i) >= ilo && int64(i) <= ihi }
		}
	}
	return p
}

// bits writes the match bitmap of rows [from, to) into words: bit j of
// words[w] is row from+64w+j. words must hold exactly the rows' bits;
// bits past the last row are zero.
func (p *rangePred) bits(from, to int, words []uint64) {
	if p.empty {
		clear(words)
		return
	}
	if p.codes != nil {
		bitsInt(p.codes[from:to], p.ilo, p.ihi, words)
		return
	}
	switch c := p.col.(type) {
	case *intColumn:
		bitsInt(c.v[from:to], p.ilo, p.ihi, words)
	case *oidColumn:
		bitsInt(c.v[from:to], p.ilo, p.ihi, words)
	case *floatColumn:
		bitsOrd(c.v[from:to], p.flo, p.fhi, words)
	case *strColumn:
		bitsOrd(c.v[from:to], p.slo, p.shi, words)
	default:
		clear(words)
		for i := from; i < to; i++ {
			if p.match(i) {
				words[(i-from)>>6] |= 1 << (uint(i-from) & 63)
			}
		}
	}
}

// b2u is 1 for true; it compiles to a flag read, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// bitsInt is the integer-domain loop. lo <= hi (compileRange resolved
// the inverted range), so one unsigned compare of the offset from lo
// against the span tests both bounds, branch-free.
func bitsInt[T intElem](v []T, lo, hi int64, words []uint64) {
	span := uint64(hi - lo)
	for w := range words {
		chunk := v[w*64:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		var x uint64
		for _, e := range chunk {
			x = x>>1 | b2u(uint64(int64(e)-lo) <= span)<<63
		}
		words[w] = x >> (uint(64-len(chunk)) & 63)
	}
}

// bitsOrd is the float and string loop.
func bitsOrd[T ordElem](v []T, lo, hi T, words []uint64) {
	for w := range words {
		chunk := v[w*64:]
		if len(chunk) > 64 {
			chunk = chunk[:64]
		}
		var x uint64
		for j, e := range chunk {
			if !(e < lo) && !(e > hi) {
				x |= 1 << (uint(j) & 63)
			}
		}
		words[w] = x
	}
}

// onesBits sets the first n bits of words and clears the rest.
func onesBits(n int, words []uint64) {
	for w := range words {
		words[w] = ^uint64(0)
	}
	if r := uint(n) & 63; r != 0 {
		words[len(words)-1] = 1<<r - 1
	}
}

// popcount returns the number of set bits.
func popcount(words []uint64) int {
	n := 0
	for _, x := range words {
		n += bits.OnesCount64(x)
	}
	return n
}

// expandBits writes base plus the index of every set bit into out,
// ascending; out must have room for popcount(words) positions.
func expandBits(words []uint64, base int, out []int) {
	k := 0
	for w, x := range words {
		pos := base + w*64
		if x == ^uint64(0) {
			for j := range out[k : k+64] {
				out[k+j] = pos + j
			}
			k += 64
			continue
		}
		for ; x != 0; x &= x - 1 {
			out[k] = pos + bits.TrailingZeros64(x)
			k++
		}
	}
}

// bitRuns calls visit(start, end) for every maximal run of set bits,
// as positions offset by base, ascending. Runs continue across word
// boundaries.
func bitRuns(words []uint64, base int, visit func(start, end int)) {
	start := -1 // first position of the run still open, or -1
	for w, x := range words {
		pos := base + w*64
		if x == 0 || x == ^uint64(0) {
			if x == 0 && start >= 0 {
				visit(start, pos)
				start = -1
			} else if x != 0 && start < 0 {
				start = pos
			}
			continue
		}
		for b := 0; b < 64; {
			if start < 0 {
				if x>>b == 0 {
					break
				}
				b += bits.TrailingZeros64(x >> b)
				start = pos + b
				continue
			}
			// x>>b shifts zeros in at the top, so the run of ones from
			// bit b ends inside the word unless it reaches bit 63.
			b += bits.TrailingZeros64(^(x >> b))
			if b < 64 {
				visit(start, pos+b)
				start = -1
			}
		}
	}
	if start >= 0 {
		visit(start, base+len(words)*64)
	}
}

// countRuns returns how many maximal runs of set bits words holds.
func countRuns(words []uint64) int {
	n := 0
	carry := uint64(0) // the previous word's top bit
	for _, x := range words {
		n += bits.OnesCount64(x &^ (x<<1 | carry))
		carry = x >> 63
	}
	return n
}

// morselSet names the morsels of an n-row column one select has to
// look at.
type morselSet struct {
	n int
	// morsels lists the morsel indices to visit, ascending; nil means
	// every morsel.
	morsels []int
	// covered[k] reports that a zone map proved every row of the k-th
	// visited morsel qualifies, so its rows need no comparing; nil
	// means nothing was proved.
	covered []bool
}

// slots is the number of morsels visited.
func (ms morselSet) slots() int {
	if ms.morsels != nil {
		return len(ms.morsels)
	}
	return numMorsels(ms.n)
}

// rowRange returns the rows of the k-th visited morsel.
func (ms morselSet) rowRange(k int) (lo, hi int) {
	if ms.morsels != nil {
		k = ms.morsels[k]
	}
	lo = k * MorselSize
	return lo, min(lo+MorselSize, ms.n)
}

// selectPlan is one range select ready to execute: the compiled
// predicate and the morsels a scan of it has to visit. Positions, runs
// and the fused consumers all read the same match bitmap.
type selectPlan struct {
	pred     rangePred
	ms       morselSet
	lat, spd *obs.Histogram // the fan-out's operator-family histograms
	info     *AccessInfo    // the gate's report; nil outside the access paths
}

// bitmap returns the select's match bitmap over the whole column and
// the match count of each visited morsel. A scan runs the kernel over
// the visited morsels, on the shared pool when the column is wide
// enough; a morsel the zone map covers is all ones without a compare.
func (pl *selectPlan) bitmap(sp *obs.Span) (words []uint64, counts []int) {
	counts = make([]int, pl.ms.slots())
	words = make([]uint64, (pl.ms.n+63)/64)
	pool, _ := poolFor(pl.ms.n)
	runMorselSet(pool, pl.ms, pl.lat, pl.spd, sp, func(k, lo, hi int) {
		w := words[lo/64 : (hi+63)/64]
		if pl.ms.covered != nil && pl.ms.covered[k] {
			onesBits(hi-lo, w)
		} else {
			pl.pred.bits(lo, hi, w)
		}
		counts[k] = popcount(w)
	})
	return words, counts
}

// positions executes the plan as one exact-size slice of the ascending
// qualifying positions — exactly those the naive scan returns: a first
// fan-out writes the match bitmap and counts each morsel's matches, a
// second expands each morsel's bits at its final offset. A non-nil sp
// collects morsel child spans for the scan.
func (pl *selectPlan) positions(sp *obs.Span) []int {
	words, offs := pl.bitmap(sp)
	total := 0
	for k, c := range offs {
		offs[k] = total
		total += c
	}
	out := make([]int, total)
	pool, _ := poolFor(pl.ms.n)
	runMorselSet(pool, pl.ms, nil, nil, nil, func(k, lo, hi int) {
		expandBits(words[lo/64:(hi+63)/64], lo, out[offs[k]:])
	})
	if pl.info != nil {
		pl.info.Matched = total
	}
	return out
}

// runs executes the plan as maximal runs of qualifying rows, plus their
// row count. Runs are read off the whole-column bitmap, so they merge
// across morsel boundaries.
func (pl *selectPlan) runs(sp *obs.Span) ([]Run, int) {
	words, counts := pl.bitmap(sp)
	matched := 0
	for _, c := range counts {
		matched += c
	}
	out := make([]Run, 0, countRuns(words))
	bitRuns(words, 0, func(start, end int) { out = append(out, Run{Start: start, Len: end - start}) })
	return out, matched
}

// morselRuns calls visit(start, end) for the maximal runs of
// qualifying rows inside the k-th visited morsel [lo, hi): a scan
// writes the morsel's match bitmap into stack scratch and the runs are
// read off it; a morsel the zone map covers is one run.
func (pl *selectPlan) morselRuns(k, lo, hi int, visit func(start, end int)) {
	if pl.ms.covered != nil && pl.ms.covered[k] {
		visit(lo, hi)
		return
	}
	var scratch [MorselSize / 64]uint64
	words := scratch[:(hi-lo+63)/64]
	pl.pred.bits(lo, hi, words)
	bitRuns(words, lo, visit)
}

// colSelectIdx is the full-scan range select over one column: the
// ascending positions whose value lies in [lo, hi].
func colSelectIdx(c Column, lo, hi Value) []int {
	pl := selectPlan{pred: compileRange(c, lo, hi), ms: morselSet{n: c.Len()}, lat: hPoolSelectLat, spd: hPoolSelectSpd}
	return pl.positions(nil)
}

// filterIdx returns the ascending positions of [0, n) that match — the
// position list of Semijoin/KDiff, whose predicate is a hash probe —
// through the same bitmap and exact-size expansion as a range select.
func filterIdx(n int, match func(i int) bool) []int {
	pl := selectPlan{pred: rangePred{match: match}, ms: morselSet{n: n}, lat: hPoolJoinLat, spd: hPoolJoinSpd}
	return pl.positions(nil)
}
