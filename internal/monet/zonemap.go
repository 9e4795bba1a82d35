package monet

import "math/bits"

// ZoneSize is the number of rows one zone-map summary covers: 16
// bitmap words, so a morsel holds MorselSize/ZoneSize = 16 zones.
const ZoneSize = 1024

const (
	zoneWords      = ZoneSize / 64
	zonesPerMorsel = MorselSize / ZoneSize
)

// numZones returns how many zones cover n rows.
func numZones(n int) int { return (n + ZoneSize - 1) / ZoneSize }

// zoneMap summarizes a column as per-zone [min, max] pairs, ZoneSize
// rows each, aligned to the MorselSize grid the parallel operators
// scan in. A range select consults it zone by zone: a morsel all of
// whose zones are disjoint from the predicate is never visited, and
// inside a visited morsel a zone wholly inside the range is taken
// without comparing a row and a disjoint zone is skipped; only the
// zones that straddle a bound run the typed kernel. Summaries are
// stored unboxed in the column's own domain — 16 bytes per zone, 16 KB
// per million rows.
type zoneMap struct {
	n    int                 // rows summarized
	ints zoneBounds[int64]   // int and oid columns, by int64 payload
	flts zoneBounds[float64] // float columns
	strs zoneBounds[string]  // string columns
	// unsafe is set when a NaN was seen: NaN compares equal to
	// everything under the kernel Compare, so min/max summaries are
	// meaningless and the owner must fall back to full scans.
	unsafe bool
}

// zoneBounds holds per-zone extremes of one domain.
type zoneBounds[T int64 | float64 | string] struct{ mins, maxs []T }

func newZoneBounds[T int64 | float64 | string](nz int) zoneBounds[T] {
	return zoneBounds[T]{mins: make([]T, nz), maxs: make([]T, nz)}
}

// zoneMappable reports whether a column has an ordered scalar tail a
// zone map can summarize.
func zoneMappable(col Column) bool {
	switch col.(type) {
	case *intColumn, *oidColumn, *floatColumn, *strColumn:
		return true
	}
	return false
}

// buildZoneMap summarizes a zoneMappable column in one typed pass,
// morsel-parallel when the column clears the pool threshold. Zone
// summaries are independent, so the parallel build is deterministic.
func buildZoneMap(col Column) *zoneMap {
	n := col.Len()
	nz := numZones(n)
	z := &zoneMap{n: n}
	switch col.(type) {
	case *intColumn, *oidColumn:
		z.ints = newZoneBounds[int64](nz)
	case *floatColumn:
		z.flts = newZoneBounds[float64](nz)
	case *strColumn:
		z.strs = newZoneBounds[string](nz)
	}
	nan := make([]bool, numMorsels(n))
	pool, _ := poolFor(n)
	runMorselSet(pool, morselSet{n: n}, nil, nil, nil, func(m, lo, hi int) {
		for lo < hi {
			zi, zhi := lo/ZoneSize, min(lo+ZoneSize, hi)
			switch c := col.(type) {
			case *intColumn:
				z.ints.mins[zi], z.ints.maxs[zi] = minMaxInt(c.v[lo:zhi])
			case *oidColumn:
				z.ints.mins[zi], z.ints.maxs[zi] = minMaxInt(c.v[lo:zhi])
			case *floatColumn:
				var u bool
				z.flts.mins[zi], z.flts.maxs[zi], u = minMaxOrd(c.v[lo:zhi])
				nan[m] = nan[m] || u
			case *strColumn:
				z.strs.mins[zi], z.strs.maxs[zi], _ = minMaxOrd(c.v[lo:zhi])
			}
			lo = zhi
		}
	})
	for _, u := range nan {
		z.unsafe = z.unsafe || u
	}
	return z
}

// minMaxInt returns the extremes of a non-empty integer-domain vector
// in Compare's order: that of the int64 payload.
func minMaxInt[T intElem](v []T) (mn, mx int64) {
	mn, mx = int64(v[0]), int64(v[0])
	for _, e := range v {
		k := int64(e)
		if k < mn {
			mn = k
		}
		if k > mx {
			mx = k
		}
	}
	return mn, mx
}

// minMaxOrd returns the extremes of a non-empty float or string
// vector, and whether it holds a NaN.
func minMaxOrd[T ordElem](v []T) (mn, mx T, nan bool) {
	mn, mx = v[0], v[0]
	for _, e := range v {
		if e < mn {
			mn = e
		}
		if e > mx {
			mx = e
		}
		nan = nan || e != e
	}
	return mn, mx, nan
}

// zoneMask holds the zone verdicts of one visited morsel: bit z of
// scan marks its z-th zone as straddling a bound, bit z of cover as
// wholly inside the range; a zone in neither is disjoint.
type zoneMask struct{ scan, cover uint16 }

// classify sorts the zones of a numeric column by what their
// [min, max] summary says about p — disjoint, covered or straddling —
// and lists the morsels holding at least one zone that is not
// disjoint, each with its zone verdicts.
func (z *zoneMap) classify(p *rangePred) morselSet {
	nm := numMorsels(z.n)
	ms := morselSet{n: z.n, morsels: make([]int, 0, nm), zones: make([]zoneMask, 0, nm)}
	if p.empty {
		return ms
	}
	// Summaries meet bounds in their own domain: float64 cannot tell
	// neighbouring int64 values past 2^53 apart.
	if z.flts.mins != nil {
		classifyZones(z.flts, p.flo, p.fhi, &ms)
	} else {
		classifyZones(z.ints, p.ilo, p.ihi, &ms)
	}
	return ms
}

func classifyZones[T int64 | float64](zb zoneBounds[T], lo, hi T, ms *morselSet) {
	for first := 0; first < len(zb.mins); first += zonesPerMorsel {
		var mask zoneMask
		for z := range min(zonesPerMorsel, len(zb.mins)-first) {
			mn, mx := zb.mins[first+z], zb.maxs[first+z]
			switch {
			case mx < lo || mn > hi:
			case mn >= lo && mx <= hi:
				mask.cover |= 1 << z
			default:
				mask.scan |= 1 << z
			}
		}
		if mask != (zoneMask{}) {
			ms.morsels = append(ms.morsels, first/zonesPerMorsel)
			ms.zones = append(ms.zones, mask)
		}
	}
}

// zoneCounts returns how many zones the visited morsels of ms scan and
// how many they take whole.
func (ms morselSet) zoneCounts() (scanned, covered int) {
	for _, zm := range ms.zones {
		scanned += bits.OnesCount16(zm.scan)
		covered += bits.OnesCount16(zm.cover)
	}
	return scanned, covered
}
