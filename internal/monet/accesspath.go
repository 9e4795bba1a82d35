package monet

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cobra/internal/obs"
)

// Adaptive access paths: the kernel's alternative to a full scan for
// tail-range selects over named BATs. Two structures live beside each
// stored BAT:
//
//   - a zone map of per-zone min/max summaries (ZoneSize rows each),
//     built lazily on the first indexed select, that prunes whole
//     morsels before the morsel-parallel scan runs and, inside the
//     morsels it visits, takes the zones it places wholly inside the
//     range without comparing a row and skips the disjoint ones
//     (zonemap.go);
//   - a dictionary for string tails, so equality and range selects
//     compare small integer codes and distinct counts come for free
//     (dict.go).
//
// Both are keyed to the store's per-name mutation epoch: Put/Append/
// Drop bump the epoch under the write lock, and the next indexed
// select observes the mismatch and rebuilds from scratch. Results are
// always byte-identical to the naive scan: every path ends in the typed
// range-select kernel (rangesel.go), and a column holding NaN — which
// no min/max summary can represent — keeps the full scan.

// Access-path metrics (monet.index.*): how often each structure is
// built and consulted, and how much work pruning saves.
var (
	cIdxSelects       = obs.C("monet.index.selects")
	cIdxInvalidations = obs.C("monet.index.invalidations")
	cZmBuilds         = obs.C("monet.index.zonemap.builds")
	cZmScanned        = obs.C("monet.index.zonemap.morsels_scanned")
	cZmPruned         = obs.C("monet.index.zonemap.morsels_pruned")
	cDictBuilds       = obs.C("monet.index.dict.builds")
	cDictHits         = obs.C("monet.index.dict.hits")
	cDictMisses       = obs.C("monet.index.dict.misses")
)

// AccessPath identifies how a range select over a stored BAT was (or
// would be) executed.
type AccessPath int

// The access paths the gate chooses between.
const (
	// PathScan is the full morsel-parallel scan.
	PathScan AccessPath = iota
	// PathZoneMap scans only the morsels whose [min,max] intersects
	// the predicate range.
	PathZoneMap
	// PathDict answers string predicates over dictionary codes.
	PathDict
)

// String renders the access path the way EXPLAIN prints it.
func (p AccessPath) String() string {
	switch p {
	case PathZoneMap:
		return "zonemap"
	case PathDict:
		return "dict"
	}
	return "scan"
}

// AccessInfo describes one (planned or executed) indexed select.
type AccessInfo struct {
	// Path is the access path chosen by the gate.
	Path AccessPath
	// Rows is the size of the scanned BAT.
	Rows int
	// Matched is the number of qualifying rows (0 for a pure plan).
	Matched int
	// MorselsTotal and MorselsPruned report zone-map effectiveness:
	// pruned morsels are never touched by the scan.
	MorselsTotal  int
	MorselsPruned int
	// Zones is the column's zone count under a zone map; ZonesScanned
	// of them straddle a bound and run the typed kernel, ZonesCovered
	// lie wholly inside the range and are taken without a compare. The
	// rest are disjoint and never read.
	Zones, ZonesScanned, ZonesCovered int
	// DictSize is the dictionary entry count (distinct tail values).
	DictSize int
}

// String renders the info as the single access-path line EXPLAIN
// ANALYZE and trace spans attach.
func (ai *AccessInfo) String() string {
	s := fmt.Sprintf("path=%s rows=%d matched=%d", ai.Path, ai.Rows, ai.Matched)
	if ai.MorselsTotal > 0 {
		s += fmt.Sprintf(" morsels=%d pruned=%d", ai.MorselsTotal, ai.MorselsPruned)
	}
	if ai.Zones > 0 {
		s += fmt.Sprintf(" zones=%d scanned=%d covered=%d", ai.Zones, ai.ZonesScanned, ai.ZonesCovered)
	}
	if ai.DictSize > 0 {
		s += fmt.Sprintf(" dict=%d", ai.DictSize)
	}
	return s
}

// batIndex is the adaptive index state of one named BAT. All fields
// are guarded by mu, which is held while a select is planned and while
// the zone map or dictionary is built — never across the read-only
// scan, so selects on one column scan concurrently. The zone map and
// the dictionary are immutable once handed out. epoch records the
// store epoch the structures were built against.
type batIndex struct {
	mu      sync.Mutex
	epoch   uint64
	selects int  // indexed selects since the last rebuild
	unsafe  bool // NaN observed in the column: always the full scan
	zm      *zoneMap
	dict    *strDict
}

// syncEpoch discards every structure when the store epoch moved.
func (ix *batIndex) syncEpoch(epoch uint64) {
	if ix.epoch == epoch {
		return
	}
	ix.epoch = epoch
	ix.selects = 0
	ix.unsafe = false
	ix.zm = nil
	ix.dict = nil
}

// indexFor returns (creating on demand) the index state of a name.
func (s *Store) indexFor(name string) *batIndex {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.indexes == nil {
		s.indexes = make(map[string]*batIndex)
	}
	ix := s.indexes[name]
	if ix == nil {
		ix = &batIndex{epoch: ^uint64(0)}
		s.indexes[name] = ix
	}
	return ix
}

// dropIndex forgets the cached index state of a dropped name.
func (s *Store) dropIndex(name string) {
	s.idxMu.Lock()
	delete(s.indexes, name)
	s.idxMu.Unlock()
}

// capture snapshots (BAT, epoch, index) for a named BAT. The store
// lock is released before any index work: index structures fan out on
// the shared pool, and a drain-helping Wait may execute foreign tasks
// that take store locks themselves.
func (s *Store) capture(name string) (*BAT, *batIndex, error) {
	s.mu.RLock()
	b, ok := s.bats[name]
	epoch := s.epochs[name]
	s.mu.RUnlock()
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchBAT, name)
	}
	ix := s.indexFor(name)
	ix.mu.Lock()
	ix.syncEpoch(epoch)
	return b, ix, nil
}

// errNotHeld reports that the store no longer holds the BAT a caller
// fetched under a name: it was replaced or appended to since.
var errNotHeld = errors.New("monet: BAT no longer held under its name")

// SelectPositions returns the ascending positions of the named BAT
// whose tail lies in [lo, hi], routed through the access-path gate,
// plus a description of the access path taken. It is the primitive
// behind SelectRange and the COQL condition evaluator.
func (s *Store) SelectPositions(name string, lo, hi Value) ([]int, *AccessInfo, error) {
	return s.SelectPositionsCtx(context.Background(), name, lo, hi)
}

// SelectPositionsCtx is SelectPositions under a trace context: when
// ctx carries a span, the select records a "monet.select" child span
// holding the gate's decision (access attr), morsel child spans for
// parallel scans, and rows-scanned attribution into the trace's shared
// Resources.
func (s *Store) SelectPositionsCtx(ctx context.Context, name string, lo, hi Value) ([]int, *AccessInfo, error) {
	_, idx, info, err := s.selectPositions(ctx, name, nil, lo, hi)
	return idx, info, err
}

// selectPositions runs one traced indexed select over the named BAT;
// a non-nil held makes it fail with errNotHeld unless the store holds
// exactly that BAT under name.
func (s *Store) selectPositions(ctx context.Context, name string, held *BAT, lo, hi Value) (*BAT, []int, *AccessInfo, error) {
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", name)
	defer sp.Finish()
	b, pl, _, err := s.planSelect(name, held, lo, hi, false)
	if err != nil {
		return nil, nil, nil, err
	}
	idx := pl.positions(sp)
	if sp != nil { // untraced selects skip formatting the access line
		sp.SetAttr("access", pl.info.String())
	}
	sp.Resources().AddScanned(scannedRows(pl.info))
	return b, idx, pl.info, nil
}

// SelectRange is the access-path counterpart of held.Select(lo, hi) —
// of held.Uselect(lo, hi) when unary — for a BAT fetched from the
// store under name: the same result, with the morsels the zone map
// rules out never scanned. ok is false, and nothing is planned, when
// the store no longer holds held under name (it was replaced or
// appended to since it was fetched); the caller then runs the operator
// on held itself.
func (s *Store) SelectRange(ctx context.Context, name string, held *BAT, lo, hi Value, unary bool) (sel *BAT, info *AccessInfo, ok bool) {
	if cur, err := s.Get(name); err != nil || cur != held {
		return nil, nil, false // checked before the span opens; planSelect checks again under the index lock
	}
	b, idx, info, err := s.selectPositions(ctx, name, held, lo, hi)
	if err != nil {
		return nil, nil, false
	}
	var tail Column = &voidColumn{n: len(idx)}
	if !unary {
		tail = b.tail.Gather(idx)
	}
	return &BAT{head: b.head.Gather(idx), tail: tail}, info, true
}

// planSelect plans one range select over a named BAT: it holds the
// column's index lock only while the gate decides and the index
// structures are built, and returns with the lock released, so the
// scan the plan describes runs beside other selects. A non-nil held
// must be the BAT the store holds under name (else errNotHeld). With
// fused set it adds the fused gate's verdict (pipeline.go): a
// non-empty reason means the caller must report, and run, the
// operator-at-a-time path over the same plan; a float column is proved
// NaN-free for it here, by the zone map's build pass.
func (s *Store) planSelect(name string, held *BAT, lo, hi Value, fused bool) (b *BAT, pl *selectPlan, reason string, err error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, nil, "", err
	}
	if held != nil && b != held {
		ix.mu.Unlock()
		return nil, nil, "", errNotHeld
	}
	if fused {
		if reason = ix.fuseReason(b.tail, lo, hi); reason == "" && !ix.nanFree(b.tail) {
			reason = "nan in column"
		}
	}
	pl = ix.plan(b.tail, lo, hi)
	ix.mu.Unlock()
	cIdxSelects.Inc()
	return b, pl, reason, nil
}

// scannedRows estimates tuples examined by one indexed select: the
// whole column for a scan, only the straddling zones under a zone map,
// and the matched rows for a dictionary answer.
func scannedRows(info *AccessInfo) int {
	switch info.Path {
	case PathZoneMap:
		return info.ZonesScanned * ZoneSize
	case PathDict:
		return info.Matched
	}
	return info.Rows
}

// PlanAccess reports the access path the next select with these
// bounds would take, without scanning or building anything — the
// side-effect-free probe EXPLAIN uses. When a zone map already exists
// the plan includes its prune counts for the given range.
func (s *Store) PlanAccess(name string, lo, hi Value) (*AccessInfo, error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, err
	}
	defer ix.mu.Unlock()
	p := compileRange(b.tail, lo, hi)
	path := ix.decide(b.tail, &p)
	ms := morselSet{n: b.Len()}
	if path == PathZoneMap && ix.zm != nil {
		ms = ix.zm.classify(&p)
	}
	info := accessInfo(path, ms)
	if ix.dict != nil {
		info.DictSize = len(ix.dict.keys)
	}
	return info, nil
}

// nanFree reports whether col is free of NaN, building the zone map of
// a float column — whose build pass is the proof — when none exists
// yet. The caller holds ix.mu.
func (ix *batIndex) nanFree(col Column) bool {
	if _, isFloat := col.(*floatColumn); isFloat && ix.zm == nil && !ix.unsafe {
		ix.buildZoneMap(col)
	}
	return !ix.unsafe
}

// buildZoneMap summarizes col into ix.zm, marking ix unsafe when the
// summary saw a NaN. The caller holds ix.mu.
func (ix *batIndex) buildZoneMap(col Column) {
	ix.zm = buildZoneMap(col)
	cZmBuilds.Inc()
	ix.unsafe = ix.unsafe || ix.zm.unsafe
}

// BuildZoneMap force-builds the zone map of a stored column (the MIL
// zonemap() builtin) and returns the number of summarized morsels.
func (s *Store) BuildZoneMap(name string) (int, error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return 0, err
	}
	defer ix.mu.Unlock()
	if !zoneMappable(b.tail) {
		return 0, fmt.Errorf("monet: cannot zone-map %q: tail %v has no ordered scalar values", name, b.TailType())
	}
	if ix.zm == nil {
		ix.buildZoneMap(b.tail)
	}
	return numMorsels(ix.zm.n), nil
}

// IndexInfo returns a [str,str] BAT describing the adaptive index
// state of a name — the MIL indexinfo() builtin and the INDEXINFO
// protocol verb.
func (s *Store) IndexInfo(name string) (*BAT, error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, err
	}
	defer ix.mu.Unlock()
	out := NewBAT(StrT, StrT)
	add := func(k, v string) { out.MustInsert(NewStr(k), NewStr(v)) }
	add("name", name)
	add("rows", fmt.Sprintf("%d", b.Len()))
	add("epoch", fmt.Sprintf("%d", ix.epoch))
	add("selects", fmt.Sprintf("%d", ix.selects))
	if ix.zm != nil {
		add("zonemap", fmt.Sprintf("%d morsels", numMorsels(ix.zm.n)))
	} else {
		add("zonemap", "none")
	}
	if ix.dict != nil {
		add("dict", fmt.Sprintf("%d entries", len(ix.dict.keys)))
	} else {
		add("dict", "none")
	}
	add("unsafe", fmt.Sprintf("%v", ix.unsafe))
	return out, nil
}

// accessInfo reports a select on path that visits the morsels of ms.
// A zone map that neither prunes nor covers a zone reports itself as
// the scan it is.
func accessInfo(path AccessPath, ms morselSet) *AccessInfo {
	info := &AccessInfo{Path: path, Rows: ms.n}
	if path == PathZoneMap && ms.morsels != nil {
		info.MorselsTotal = numMorsels(ms.n)
		info.MorselsPruned = info.MorselsTotal - len(ms.morsels)
		info.Zones = numZones(ms.n)
		info.ZonesScanned, info.ZonesCovered = ms.zoneCounts()
		if info.ZonesScanned == info.Zones {
			info.Path = PathScan
		}
	}
	return info
}

// decide is the gate: given the column, the compiled predicate and
// the current index state, decide how the next select would execute.
// It performs no builds and no scans. Strings go to the dictionary
// from the second select on; a NaN-free numeric column goes through
// the zone map, which its first select builds.
func (ix *batIndex) decide(col Column, p *rangePred) AccessPath {
	if col.Len() < ParallelThreshold || ix.unsafe || p.mixed {
		// Bounds of another type admit all rows or none: nothing for an
		// index to do.
		return PathScan
	}
	switch col.Type() {
	case StrT:
		if ix.dict != nil || ix.selects >= 1 {
			return PathDict
		}
	case IntT, OIDT, FloatT:
		return PathZoneMap
	}
	return PathScan
}

// plan runs one range select through the gate, building the zone map
// or dictionary the path needs. It owns the column's select counter.
// The caller holds ix.mu and releases it before executing the plan.
func (ix *batIndex) plan(col Column, lo, hi Value) *selectPlan {
	pl := &selectPlan{pred: compileRange(col, lo, hi), ms: morselSet{n: col.Len()}, lat: hPoolSelectLat, spd: hPoolSelectSpd}
	path := ix.decide(col, &pl.pred)
	if path == PathZoneMap && ix.zm == nil {
		// A numeric column's first select: summarize it, then decide
		// again knowing whether the summary saw a NaN.
		ix.buildZoneMap(col)
		path = ix.decide(col, &pl.pred)
	}
	ix.selects++
	switch path {
	case PathZoneMap:
		pl.ms = ix.zm.classify(&pl.pred)
	case PathDict:
		if ix.dict == nil {
			ix.dict = buildDict(col)
			cDictBuilds.Inc()
		}
		var hit bool
		if pl.pred, hit = ix.dict.codeRange(col, pl.pred.slo, pl.pred.shi); hit {
			cDictHits.Inc()
		} else {
			cDictMisses.Inc()
		}
	}
	pl.info = accessInfo(path, pl.ms)
	switch path {
	case PathZoneMap:
		cZmScanned.Add(int64(len(pl.ms.morsels)))
		cZmPruned.Add(int64(pl.info.MorselsPruned))
	case PathDict:
		pl.info.DictSize = len(ix.dict.keys)
	}
	return pl
}
