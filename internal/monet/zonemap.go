package monet

// zoneMap summarizes a column as per-morsel [min, max] pairs, aligned
// to the MorselSize grid the parallel operators already scan in. A
// range select consults it to skip every morsel whose summary cannot
// intersect the predicate and to take every morsel the summary places
// wholly inside the range without comparing a row; the rest feed the
// same morsel-ordered scan, so neither shortcut changes the result.
type zoneMap struct {
	mins, maxs []Value
	n          int // rows summarized
	// unsafe is set when a NaN was seen: NaN compares equal to
	// everything under the kernel Compare, so min/max summaries are
	// meaningless and the owner must fall back to full scans.
	unsafe bool
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
// morsel-parallel when the column clears the pool threshold.
// Per-morsel summaries are independent, so the parallel build is
// deterministic.
func buildZoneMap(col Column) *zoneMap {
	n := col.Len()
	nm := numMorsels(n)
	z := &zoneMap{mins: make([]Value, nm), maxs: make([]Value, nm), n: n}
	nan := make([]bool, nm)
	pool, _ := poolFor(n)
	runMorselSet(pool, morselSet{n: n}, nil, nil, nil, func(m, lo, hi int) {
		switch c := col.(type) {
		case *intColumn:
			mn, mx := minMaxInt(c.v[lo:hi])
			z.mins[m], z.maxs[m] = NewInt(mn), NewInt(mx)
		case *oidColumn:
			mn, mx := minMaxInt(c.v[lo:hi])
			z.mins[m], z.maxs[m] = NewOID(OID(mn)), NewOID(OID(mx))
		case *floatColumn:
			var mn, mx float64
			mn, mx, nan[m] = minMaxOrd(c.v[lo:hi])
			z.mins[m], z.maxs[m] = NewFloat(mn), NewFloat(mx)
		case *strColumn:
			mn, mx, _ := minMaxOrd(c.v[lo:hi])
			z.mins[m], z.maxs[m] = NewStr(mn), NewStr(mx)
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

// classify sorts the morsels of a numeric column by what their
// [min, max] summary says about p: disjoint morsels are dropped,
// morsels wholly inside the range are marked covered, and the rest
// straddle a bound and must be scanned. est is the expected number of
// qualifying rows — exact over covered morsels, the range's share of
// the summary's width (values taken as uniform inside a morsel) over
// straddling ones — and scan the number of rows in straddling morsels.
func (z *zoneMap) classify(p *rangePred) (ms morselSet, est, scan int) {
	ms = morselSet{n: z.n, morsels: make([]int, 0, len(z.mins)), covered: make([]bool, 0, len(z.mins))}
	if p.empty {
		return ms, 0, 0
	}
	isFloat := z.mins[0].Typ == FloatT
	fest := 0.0
	for m := range z.mins {
		mn, mx := z.mins[m], z.maxs[m]
		// Summaries meet bounds in their own domain: float64 cannot
		// tell neighbouring int64 values past 2^53 apart.
		var disjoint, covered bool
		if isFloat {
			disjoint, covered = mx.F < p.flo || mn.F > p.fhi, mn.F >= p.flo && mx.F <= p.fhi
		} else {
			disjoint, covered = mx.I < p.ilo || mn.I > p.ihi, mn.I >= p.ilo && mx.I <= p.ihi
		}
		if disjoint {
			continue
		}
		rows := min(MorselSize, z.n-m*MorselSize)
		ms.morsels = append(ms.morsels, m)
		ms.covered = append(ms.covered, covered)
		if covered {
			fest += float64(rows)
			continue
		}
		scan += rows
		lo, hi, unit := p.flo, p.fhi, 0.0
		if !isFloat {
			lo, hi, unit = float64(p.ilo), float64(p.ihi), 1 // [a, b] holds b-a+1 integers
		}
		share := (min(hi, mx.Float()) - max(lo, mn.Float()) + unit) / (mx.Float() - mn.Float() + unit)
		if !(share >= 0 && share <= 1) {
			share = 1 // infinite summaries have no width to take a share of
		}
		fest += float64(rows) * share
	}
	return ms, int(fest), scan
}
