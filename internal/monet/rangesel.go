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
// ascending, and returns how many it wrote; out must have room for
// popcount(words) positions.
func expandBits(words []uint64, base int, out []int) int {
	k := 0
	for w, x := range words {
		pos := base + w*64
		if x == ^uint64(0) {
			seg := out[k : k+64]
			for j := range seg {
				seg[j] = pos + j
			}
			k += 64
			continue
		}
		for ; x != 0; x &= x - 1 {
			out[k] = pos + bits.TrailingZeros64(x)
			k++
		}
	}
	return k
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

// morselSet names the morsels of an n-row column one select has to
// look at.
type morselSet struct {
	n int
	// morsels lists the morsel indices to visit, ascending; nil means
	// every morsel.
	morsels []int
	// zones[k] holds the zone map's verdicts on the zones of the k-th
	// visited morsel; nil means nothing was proved and every zone is
	// scanned.
	zones []zoneMask
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
// predicate and the morsels a scan of it has to visit. No bitmap of the
// whole column is ever built: the typed kernel runs only over the zones
// that straddle a bound, and a zone the zone map covers or rules out
// has its verdict for a bitmap.
type selectPlan struct {
	pred     rangePred
	ms       morselSet
	lat, spd *obs.Histogram // the fan-out's operator-family histograms
	info     *AccessInfo    // the gate's report; nil outside the access paths
}

// zoneVerdict is what a zone map proved about one zone's rows.
type zoneVerdict uint8

const (
	zoneDisjoint  zoneVerdict = iota // no row qualifies
	zoneCovered                      // every row qualifies
	zoneStraddles                    // the typed kernel has to compare
)

// verdict returns the verdict on the z-th zone of the k-th visited
// morsel; every zone straddles when nothing was summarized.
func (pl *selectPlan) verdict(k, z int) zoneVerdict {
	if pl.ms.zones == nil {
		return zoneStraddles
	}
	switch bit := uint16(1) << z; {
	case pl.ms.zones[k].scan&bit != 0:
		return zoneStraddles
	case pl.ms.zones[k].cover&bit != 0:
		return zoneCovered
	}
	return zoneDisjoint
}

// straddles counts the zones of the k-th visited morsel the kernel has
// to compare.
func (pl *selectPlan) straddles(k int) int {
	if pl.ms.zones == nil {
		lo, hi := pl.ms.rowRange(k)
		return numZones(hi - lo)
	}
	return bits.OnesCount16(pl.ms.zones[k].scan)
}

// scan runs the typed kernel over every straddling zone, fanned out
// over the visited morsels on the shared pool when the column is wide
// enough. It returns the match bits of those zones packed in visit
// order, zoneWords words per zone; the word each visited morsel's zones
// start at; and each visited morsel's match count. Covered and disjoint
// zones take no bits. A non-nil sp collects morsel child spans.
func (pl *selectPlan) scan(sp *obs.Span) ([]uint64, []int, []int) {
	offs, counts := make([]int, pl.ms.slots()), make([]int, pl.ms.slots())
	words := 0
	for k := range offs {
		offs[k] = words
		words += pl.straddles(k) * zoneWords
	}
	zbits := make([]uint64, words)
	pool, _ := poolFor(pl.ms.n)
	runMorselSet(pool, pl.ms, pl.lat, pl.spd, sp, func(k, lo, hi int) {
		w, c := zbits[offs[k]:], 0
		for zlo := lo; zlo < hi; zlo += ZoneSize {
			zhi := min(zlo+ZoneSize, hi)
			switch pl.verdict(k, (zlo-lo)/ZoneSize) {
			case zoneCovered:
				c += zhi - zlo
			case zoneStraddles:
				zw := w[:(zhi-zlo+63)/64]
				pl.pred.bits(zlo, zhi, zw)
				c += popcount(zw)
				w = w[zoneWords:]
			}
		}
		counts[k] = c
	})
	return zbits, offs, counts
}

// positions executes the plan as one exact-size slice of the ascending
// qualifying positions — exactly those the naive scan returns: scan
// counts each morsel's matches, and a second fan-out writes every
// morsel's positions at its final offset — a covered zone's rows
// without reading a bit. A non-nil sp collects morsel child spans for
// the scan.
func (pl *selectPlan) positions(sp *obs.Span) []int {
	zbits, offs, at := pl.scan(sp)
	total := 0
	for k, c := range at {
		at[k] = total
		total += c
	}
	out := make([]int, total)
	pool, _ := poolFor(pl.ms.n)
	runMorselSet(pool, pl.ms, nil, nil, nil, func(k, lo, hi int) {
		w, dst := zbits[offs[k]:], out[at[k]:]
		for zlo := lo; zlo < hi; zlo += ZoneSize {
			zhi := min(zlo+ZoneSize, hi)
			switch pl.verdict(k, (zlo-lo)/ZoneSize) {
			case zoneCovered:
				for j := range dst[:zhi-zlo] {
					dst[j] = zlo + j
				}
				dst = dst[zhi-zlo:]
			case zoneStraddles:
				dst = dst[expandBits(w[:(zhi-zlo+63)/64], zlo, dst):]
				w = w[zoneWords:]
			}
		}
	})
	if pl.info != nil {
		pl.info.Matched = total
	}
	return out
}

// runs executes the plan as maximal runs of qualifying rows, plus their
// row count. The runs are read off the scanned zones' bits and the
// covered zones in row order, so a run that crosses a zone or morsel
// edge comes out whole.
func (pl *selectPlan) runs(sp *obs.Span) ([]Run, int) {
	zbits, offs, counts := pl.scan(sp)
	matched, n, end := 0, 0, -1
	for _, c := range counts {
		matched += c
	}
	pl.eachRun(zbits, offs, func(start, stop int) {
		if start != end {
			n++
		}
		end = stop
	})
	out := make([]Run, 0, n)
	pl.eachRun(zbits, offs, func(start, stop int) {
		if last := len(out) - 1; last >= 0 && out[last].Start+out[last].Len == start {
			out[last].Len += stop - start
			return
		}
		out = append(out, Run{Start: start, Len: stop - start})
	})
	return out, matched
}

// eachRun calls visit(start, stop) for the runs of qualifying rows of
// every visited zone in row order, as scan left them: one per covered
// zone, the maximal runs inside each straddling one. Runs of
// neighbouring zones may touch; the caller merges them.
func (pl *selectPlan) eachRun(zbits []uint64, offs []int, visit func(start, stop int)) {
	for k, off := range offs {
		lo, hi := pl.ms.rowRange(k)
		w := zbits[off:]
		for zlo := lo; zlo < hi; zlo += ZoneSize {
			zhi := min(zlo+ZoneSize, hi)
			switch pl.verdict(k, (zlo-lo)/ZoneSize) {
			case zoneCovered:
				visit(zlo, zhi)
			case zoneStraddles:
				bitRuns(w[:(zhi-zlo+63)/64], zlo, visit)
				w = w[zoneWords:]
			}
		}
	}
}

// morselRuns calls visit(start, end) for the maximal runs of
// qualifying rows inside the k-th visited morsel [lo, hi), read off a
// match bitmap of the morsel in stack scratch: a covered zone is all
// ones and a disjoint one all zeros without a compare, and only the
// straddling zones run the typed kernel.
func (pl *selectPlan) morselRuns(k, lo, hi int, visit func(start, end int)) {
	var scratch [MorselSize / 64]uint64
	words := scratch[:(hi-lo+63)/64]
	for zlo := lo; zlo < hi; zlo += ZoneSize {
		zhi := min(zlo+ZoneSize, hi)
		w := words[(zlo-lo)/64 : (zhi-lo+63)/64]
		switch pl.verdict(k, (zlo-lo)/ZoneSize) {
		case zoneStraddles:
			pl.pred.bits(zlo, zhi, w)
		case zoneCovered:
			onesBits(zhi-zlo, w)
		default:
			clear(w)
		}
	}
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
// through the same scan and exact-size expansion as a range select.
func filterIdx(n int, match func(i int) bool) []int {
	pl := selectPlan{pred: rangePred{match: match}, ms: morselSet{n: n}, lat: hPoolFilterLat, spd: hPoolFilterSpd}
	return pl.positions(nil)
}
