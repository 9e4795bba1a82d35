package monet

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cobra/internal/obs"
)

// Adaptive access paths: the kernel's self-organizing alternative to a
// full scan for tail-range selects over named BATs. Three cooperating
// structures live beside each stored BAT:
//
//   - a zone map of per-morsel min/max summaries, built lazily on the
//     first indexed select, that prunes whole morsels before the
//     morsel-parallel scan runs (zonemap.go);
//   - a cracker copy of numeric tails, incrementally range-partitioned
//     as a side effect of each select, so hot columns converge toward
//     sorted and repeated selects become binary search + narrow copy
//     (crack.go);
//   - a dictionary for string tails, so equality and range selects
//     compare small integer codes and distinct counts come for free
//     (dict.go).
//
// All structures are keyed to the store's per-name mutation epoch:
// Put/Append/Drop bump the epoch under the write lock, and the next
// indexed select observes the mismatch and rebuilds from scratch.
// Results are always byte-identical to the naive scan: every path ends
// in the typed range-select kernel (rangesel.go) or in a cracker
// partition of the same values, and a column holding NaN — which no
// min/max summary or range partition can represent — keeps the full
// scan.

// Access-path metrics (monet.index.*): how often each structure is
// built and consulted, how much work pruning saves, and how far the
// crackers have converged.
var (
	cIdxSelects       = obs.C("monet.index.selects")
	cIdxInvalidations = obs.C("monet.index.invalidations")
	cZmBuilds         = obs.C("monet.index.zonemap.builds")
	cZmScanned        = obs.C("monet.index.zonemap.morsels_scanned")
	cZmPruned         = obs.C("monet.index.zonemap.morsels_pruned")
	cCrBuilds         = obs.C("monet.index.crack.builds")
	cCrCracks         = obs.C("monet.index.crack.cracks")
	hCrPieces         = obs.H("monet.index.crack.pieces")
	cDictBuilds       = obs.C("monet.index.dict.builds")
	cDictHits         = obs.C("monet.index.dict.hits")
	cDictMisses       = obs.C("monet.index.dict.misses")
)

// AccessPath identifies how a range select over a stored BAT was (or
// would be) executed.
type AccessPath int

// The access paths the cost gate chooses between.
const (
	// PathScan is the full morsel-parallel scan of PR 4.
	PathScan AccessPath = iota
	// PathZoneMap scans only the morsels whose [min,max] intersects
	// the predicate range.
	PathZoneMap
	// PathCrack answers from the incrementally range-partitioned
	// cracker copy of the column.
	PathCrack
	// PathDict answers string predicates over dictionary codes.
	PathDict
)

// String renders the access path the way EXPLAIN prints it.
func (p AccessPath) String() string {
	switch p {
	case PathZoneMap:
		return "zonemap"
	case PathCrack:
		return "crack"
	case PathDict:
		return "dict"
	}
	return "scan"
}

// AccessInfo describes one (planned or executed) indexed select.
type AccessInfo struct {
	// Path is the access path chosen by the cost gate.
	Path AccessPath
	// Rows is the size of the scanned BAT.
	Rows int
	// Matched is the number of qualifying rows (0 for a pure plan).
	Matched int
	// MorselsTotal and MorselsPruned report zone-map effectiveness:
	// pruned morsels are never touched by the scan.
	MorselsTotal  int
	MorselsPruned int
	// CrackPieces is the cracker partition count after the select.
	CrackPieces int
	// DictSize is the dictionary entry count (distinct tail values).
	DictSize int
	// EstMatched is the cost gate's estimate of the qualifying rows,
	// made before the select ran; -1 when it had nothing to estimate
	// from (no zone map yet, or a column the gate does not index).
	EstMatched int
	// ScanCost and CrackCost are the gate's estimates, in rows
	// compared, of answering by scanning the morsels the zone map
	// leaves and by the cracker; meaningful when EstMatched >= 0.
	ScanCost, CrackCost int
	// Note says why the cheaper road was not taken, when it was not.
	Note string
}

// String renders the info as the single access-path line EXPLAIN
// ANALYZE and trace spans attach.
func (ai *AccessInfo) String() string {
	s := fmt.Sprintf("path=%s rows=%d matched=%d", ai.Path, ai.Rows, ai.Matched)
	if ai.MorselsTotal > 0 {
		s += fmt.Sprintf(" morsels=%d pruned=%d", ai.MorselsTotal, ai.MorselsPruned)
	}
	if ai.CrackPieces > 0 {
		s += fmt.Sprintf(" pieces=%d", ai.CrackPieces)
	}
	if ai.DictSize > 0 {
		s += fmt.Sprintf(" dict=%d", ai.DictSize)
	}
	if ai.EstMatched >= 0 {
		chosen, cc, rejected, rc := "scan", ai.ScanCost, "crack", ai.CrackCost
		if ai.Path == PathCrack {
			chosen, cc, rejected, rc = rejected, rc, chosen, cc
		}
		why := ""
		if ai.Note != "" {
			why = ", " + ai.Note
		}
		s += fmt.Sprintf(" est_matched=%d chosen=%s(cost≈%d) rejected=%s(cost≈%d%s)", ai.EstMatched, chosen, cc, rejected, rc, why)
	}
	return s
}

// DefaultCrackThreshold is how many indexed selects a numeric column
// absorbs before the cost gate may invest in a cracker copy: the first
// selects are served by the (cheap) zone map, and only a column that
// keeps being filtered is worth the copy and the partitioning passes
// the gate's per-query costs leave out.
const DefaultCrackThreshold = 2

// crackCostPerMatch is the cost gate's one constant: answering from
// the cracker costs about this many compared rows of the typed scan per
// qualifying position, where the scan costs one per row of every morsel
// the zone map cannot decide plus one per match to write it. Marking a
// partition's positions in the answer bitmap and reading them back
// measures close to 2 (`cobra-bench -run micro`: CrackSelect1M against
// TypedScan1M and ZoneMapSelect1M at 0.1–50 % selectivity, DESIGN.md
// §10); the third unit is the margin the cracker has to win by to be
// worth its 16 bytes per row and the partitioning passes the per-query
// costs leave out — which is also what keeps a column that is only ever
// asked half its rows from growing one.
const crackCostPerMatch = 3

var crackAfter atomic.Int64

func init() { crackAfter.Store(DefaultCrackThreshold) }

// SetCrackThreshold overrides how many indexed selects a numeric
// column absorbs before it may graduate from zone-map pruning to
// cracking and returns the previous value. n <= 0 restores the
// default. It is a tuning knob for benchmarks and experiments;
// production code should leave the gate at DefaultCrackThreshold.
func SetCrackThreshold(n int) int {
	if n <= 0 {
		n = DefaultCrackThreshold
	}
	return int(crackAfter.Swap(int64(n)))
}

// batIndex is the adaptive index state of one named BAT. All fields
// are guarded by mu, which is held while a select is planned and while
// the cracker or dictionary is mutated — never across the read-only
// scan, so selects on one column scan concurrently. The zone map, the
// dictionary and a cracker answer are immutable once handed out. epoch
// records the store epoch the structures were built against.
type batIndex struct {
	mu      sync.Mutex
	epoch   uint64
	selects int  // indexed selects since the last rebuild
	unsafe  bool // NaN observed in the column: always the full scan
	pinned  bool // Crack() forced the cracker: always answer from it
	zm      *zoneMap
	cr      cracker
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
	ix.pinned = false
	ix.zm = nil
	ix.cr = nil
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

// SelectPositions returns the ascending positions of the named BAT
// whose tail lies in [lo, hi], routed through the cost gate, plus a
// description of the access path taken. It is the primitive behind
// SelectRange and the COQL condition evaluator.
func (s *Store) SelectPositions(name string, lo, hi Value) ([]int, *AccessInfo, error) {
	return s.SelectPositionsCtx(context.Background(), name, lo, hi)
}

// SelectPositionsCtx is SelectPositions under a trace context: when
// ctx carries a span, the select records a "monet.select" child span
// holding the cost-gate decision (access attr), morsel child spans for
// parallel scans, and rows-scanned attribution into the trace's shared
// Resources.
func (s *Store) SelectPositionsCtx(ctx context.Context, name string, lo, hi Value) ([]int, *AccessInfo, error) {
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", name)
	defer sp.Finish()
	_, pl, _, err := s.planSelect(name, lo, hi, false)
	if err != nil {
		return nil, nil, err
	}
	idx := pl.positions(sp)
	sp.SetAttr("access", pl.info.String())
	sp.Resources().AddScanned(scannedRows(pl.info))
	return idx, pl.info, nil
}

// planSelect plans one range select over a named BAT: it holds the
// column's index lock only while the gate decides and the index
// structures are built or cracked, and returns with the lock released,
// so the scan the plan describes runs beside other selects. With fused
// set it adds the fused gate's verdict (pipeline.go): a non-empty
// reason means the caller must report, and run, the operator-at-a-time
// path over the same plan; a float column is proved NaN-free for it
// here, by the zone map's build pass.
func (s *Store) planSelect(name string, lo, hi Value, fused bool) (b *BAT, pl *selectPlan, reason string, err error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, nil, "", err
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
// whole column for a scan, only surviving morsels under zone-map
// pruning, and the matched rows for index answers (crack/dict touch
// piece boundaries, not tuples).
func scannedRows(info *AccessInfo) int {
	switch info.Path {
	case PathZoneMap:
		return (info.MorselsTotal - info.MorselsPruned) * MorselSize
	case PathCrack, PathDict:
		return info.Matched
	}
	return info.Rows
}

// SelectRange is the adaptive counterpart of BAT.Select over a stored
// BAT: same [head, tail] result, access path chosen by the cost gate.
func (s *Store) SelectRange(name string, lo, hi Value) (*BAT, *AccessInfo, error) {
	b, pl, _, err := s.planSelect(name, lo, hi, false)
	if err != nil {
		return nil, nil, err
	}
	idx := pl.positions(nil)
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}, pl.info, nil
}

// PlanAccess reports the access path the next select with these
// bounds would take, without scanning or building anything — the
// side-effect-free probe EXPLAIN uses. When a zone map already exists
// the plan includes its prune counts and the gate's estimates for the
// given range.
func (s *Store) PlanAccess(name string, lo, hi Value) (*AccessInfo, error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, err
	}
	defer ix.mu.Unlock()
	p := compileRange(b.tail, lo, hi)
	d := ix.decide(b.tail, &p)
	info := d.info(b.Len())
	if ix.cr != nil {
		info.CrackPieces = ix.cr.pieces()
	}
	if ix.dict != nil {
		info.DictSize = len(ix.dict.keys)
	}
	return info, nil
}

// Crack force-builds the cracker copy of a stored numeric column (the
// MIL crack() builtin), pins the column's selects to it, and returns
// its piece count.
func (s *Store) Crack(name string) (int, error) {
	b, ix, err := s.capture(name)
	if err != nil {
		return 0, err
	}
	defer ix.mu.Unlock()
	if ix.cr == nil {
		if !ix.nanFree(b.tail) {
			return 0, fmt.Errorf("monet: cannot crack %q: column contains NaN", name)
		}
		if ix.cr = buildCracker(b.tail); ix.cr == nil {
			return 0, fmt.Errorf("monet: cannot crack %q: tail %v is not a crackable column", name, b.TailType())
		}
		cCrBuilds.Inc()
	}
	ix.pinned = true
	return ix.cr.pieces(), nil
}

// nanFree reports whether col is free of NaN, building the zone map of
// a float column — whose build pass is the proof — when none exists
// yet. The caller holds ix.mu.
func (ix *batIndex) nanFree(col Column) bool {
	if _, isFloat := col.(*floatColumn); isFloat && ix.zm == nil && !ix.unsafe {
		ix.zm = buildZoneMap(col)
		cZmBuilds.Inc()
		ix.unsafe = ix.zm.unsafe
	}
	return !ix.unsafe
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
		ix.zm = buildZoneMap(b.tail)
		cZmBuilds.Inc()
		ix.unsafe = ix.unsafe || ix.zm.unsafe
	}
	return len(ix.zm.mins), nil
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
		add("zonemap", fmt.Sprintf("%d morsels", len(ix.zm.mins)))
	} else {
		add("zonemap", "none")
	}
	if ix.cr != nil {
		add("crack", fmt.Sprintf("%d pieces (%d cracks)", ix.cr.pieces(), ix.cr.cracks()))
	} else {
		add("crack", "none")
	}
	if ix.dict != nil {
		add("dict", fmt.Sprintf("%d entries", len(ix.dict.keys)))
	} else {
		add("dict", "none")
	}
	add("unsafe", fmt.Sprintf("%v", ix.unsafe))
	return out, nil
}

// decision is the cost gate's verdict on one select: the path, and
// what the zone map (when one exists) says about the range.
type decision struct {
	path AccessPath
	ms   morselSet // the morsels a scan has to visit
	// est is the estimated number of qualifying rows, -1 when there is
	// nothing to estimate from; scanCost and crackCost are the two
	// roads' estimated costs in compared rows.
	est, scanCost, crackCost int
	note                     string
}

// info renders the decision as the AccessInfo of an n-row column.
func (d *decision) info(n int) *AccessInfo {
	info := &AccessInfo{Path: d.path, Rows: n, EstMatched: d.est, ScanCost: d.scanCost, CrackCost: d.crackCost, Note: d.note}
	if d.path == PathZoneMap && d.est >= 0 {
		info.MorselsTotal = numMorsels(n)
		if info.MorselsPruned = info.MorselsTotal - len(d.ms.morsels); info.MorselsPruned == 0 {
			info.Path = PathScan // a zone map that prunes nothing is a scan
		}
	}
	return info
}

// decide is the cost gate: given the column, the compiled predicate
// and the current index state, decide how the next select would
// execute. It performs no builds and no scans.
//
// Strings go to the dictionary from the second select on. A numeric
// column's first select builds the zone map; from then on the gate
// estimates the qualifying rows from it — refined by the cracker's
// boundaries once a cracker exists — and answers from the cracker only
// when putting that many positions in order is cheaper than comparing
// the rows of the morsels the zone map cannot decide. A cracker is
// built only for a column that has absorbed DefaultCrackThreshold
// selects and is now asked a range the cracker would win, so a column
// that only ever sees wide ranges never pays for the copy.
func (ix *batIndex) decide(col Column, p *rangePred) decision {
	n := col.Len()
	d := decision{path: PathScan, ms: morselSet{n: n}, est: -1}
	if n < ParallelThreshold || ix.unsafe || p.mixed {
		// Bounds of another type admit all rows or none: nothing for an
		// index to do.
		return d
	}
	switch col.Type() {
	case StrT:
		if ix.dict != nil || ix.selects >= 1 {
			d.path = PathDict
		}
		return d
	case IntT, OIDT, FloatT:
	default:
		return d
	}
	d.path = PathZoneMap
	if ix.zm != nil {
		d.ms, d.est, d.scanCost = ix.zm.classify(p)
		if ix.cr != nil {
			d.est = min(d.est, ix.cr.bound(p))
		}
		d.scanCost += d.est
		d.crackCost = d.est * crackCostPerMatch
	}
	switch {
	case ix.pinned:
		d.path, d.note = PathCrack, "pinned by crack()"
	case ix.zm == nil || d.crackCost >= d.scanCost:
	case ix.cr != nil || int64(ix.selects) >= crackAfter.Load():
		d.path = PathCrack
	default:
		d.note = "no cracker yet"
	}
	return d
}

// plan runs one range select through the gate, building index
// structures as the policy allows and cracking when the cracker
// answers. It owns the column's select counter. The caller holds
// ix.mu and releases it before executing the plan.
func (ix *batIndex) plan(col Column, lo, hi Value) *selectPlan {
	pl := &selectPlan{pred: compileRange(col, lo, hi), lat: hPoolSelectLat, spd: hPoolSelectSpd}
	d := ix.decide(col, &pl.pred)
	if d.path == PathZoneMap && ix.zm == nil {
		// A numeric column's first select: summarize it, then decide
		// again knowing what the summary says.
		ix.zm = buildZoneMap(col)
		cZmBuilds.Inc()
		ix.unsafe = ix.zm.unsafe
		d = ix.decide(col, &pl.pred)
	}
	ix.selects++
	pl.ms, pl.info = d.ms, d.info(col.Len())
	switch d.path {
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
		pl.info.DictSize = len(ix.dict.keys)
	case PathCrack:
		if ix.cr == nil {
			ix.cr = buildCracker(col)
			cCrBuilds.Inc()
		}
		before := ix.cr.cracks()
		pl.ms = morselSet{n: col.Len()} // the answer covers the column, not the zone map's survivors
		pl.words = ix.cr.selectRange(&pl.pred)
		cCrCracks.Add(int64(ix.cr.cracks() - before))
		hCrPieces.ObserveNs(int64(ix.cr.pieces()))
		pl.info.CrackPieces = ix.cr.pieces()
	case PathZoneMap:
		cZmScanned.Add(int64(len(pl.ms.morsels)))
		cZmPruned.Add(int64(pl.info.MorselsPruned))
	}
	return pl
}
