package monet

import (
	"context"
	"fmt"
	"math"

	"cobra/internal/obs"
)

// Fused grouped aggregation and join probes: the select→group→agg and
// select→join-probe shapes of pipeline.go. Grouping runs in the
// integer domain — int/oid/bit group columns key on their raw payload,
// and dict-encoded string columns key on their int32 codes, decoding
// each distinct group label exactly once for the output (dictionary-
// domain execution). Per-morsel group tables live in arena scratch;
// only the exact-size per-morsel partials are allocated.

// fusedGroupPart is one morsel's grouped partial state: the group keys
// in first-occurrence order plus per-group fold values and row counts,
// copied exact-size out of the arena scratch.
type fusedGroupPart struct {
	keys   []int64
	accs   []float64
	counts []int64
}

// dictCodes returns (building on demand) the dictionary codes and keys
// of a stored string column, or nils when the column has no
// dictionary form. It locks only the named column's own index — never
// nested inside another index lock — so pipelines over two columns
// cannot deadlock.
func (s *Store) dictCodes(name string) ([]int32, []string) {
	b, ix, err := s.capture(name)
	if err != nil {
		return nil, nil
	}
	defer ix.mu.Unlock()
	if _, ok := b.tail.(*strColumn); !ok {
		return nil, nil
	}
	if ix.dict == nil {
		ix.dict = buildDict(b.tail)
		cDictBuilds.Inc()
	}
	if ix.dict == nil {
		return nil, nil
	}
	return ix.dict.codes, ix.dict.keys
}

// GroupAggregate executes select→group→aggregate fused: rows matched
// by the pipeline's predicate are grouped by the named group column
// and the op ("count", "sum", "avg", "min", "max") folds the named
// aggregate column per group, producing the same [group, value] BAT —
// same group order (first occurrence in ascending row order), same
// bits — as gathering both columns through the selected positions and
// running the BAT group operators. The gate falls back to exactly
// that path when it cannot prove identity.
func (p *Pipeline) GroupAggregate(ctx context.Context, group, agg, op string) (*BAT, *FusedInfo, error) {
	gb, err := p.s.Get(group)
	if err != nil {
		return nil, nil, err
	}
	ab, err := p.s.Get(agg)
	if err != nil {
		return nil, nil, err
	}
	// Dict codes are fetched (and built) under the group column's own
	// index lock, released before the predicate index is locked: index
	// locks never nest.
	var codes []int32
	var keyStrs []string
	if gb.TailType() == StrT {
		codes, keyStrs = p.s.dictCodes(group)
	}

	stages := "select→group[" + op + "]"
	if codes != nil {
		stages = "select→dictgroup[" + op + "]"
	}
	needVal := op != "count"
	var init float64
	var fold func(acc, x float64) float64
	switch op {
	case "count":
	case "sum", "avg":
		fold, init = func(acc, x float64) float64 { return acc + x }, 0
	case "min":
		fold, init = math.Min, math.Inf(1)
	case "max":
		fold, init = math.Max, math.Inf(-1)
	default:
		return nil, nil, fmt.Errorf("monet: fused group aggregate: unknown op %q", op)
	}

	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", p.pred)
	defer sp.Finish()
	b, pl, reason, err := p.s.planSelect(p.pred, nil, p.lo, p.hi, true)
	if err != nil {
		return nil, nil, err
	}
	if gb.Len() != b.Len() || ab.Len() != b.Len() {
		return nil, nil, fmt.Errorf("monet: fused group aggregate: misaligned columns %q/%q/%q (%d/%d/%d rows)",
			p.pred, group, agg, b.Len(), gb.Len(), ab.Len())
	}
	keyAt := intReader(gb.tail)
	if codes != nil && len(codes) == gb.Len() {
		c := codes
		keyAt = func(i int) int64 { return int64(c[i]) }
	}
	if reason == "" && keyAt == nil {
		reason = fmt.Sprintf("unfusable group column type %v", gb.TailType())
	}
	valAt := intReader(ab.tail)
	if reason == "" && needVal && valAt == nil {
		reason = fmt.Sprintf("inexact or non-integer aggregate column %v", ab.TailType())
	}
	if reason != "" {
		idx := pl.positions(sp)
		out, err := groupPositions(gb, ab, idx, op)
		return out, pl.finish(sp, stages, reason, len(idx), 0), err
	}

	// accumulate folds one morsel's dense partial into arena scratch
	// sized bound — the largest possible distinct-group count for the
	// ranges it will visit.
	accumulate := func(part *fusedGroupPart, bound int, ranges func(visit func(s, e int))) {
		a := GetArena()
		slots := a.IntSlots()
		keys := a.Int64s(bound)
		counts := a.Int64s(bound)
		var accs []float64
		if needVal {
			accs = a.Floats(bound)
		}
		ng := 0
		ranges(func(s, e int) {
			for i := s; i < e; i++ {
				kk := keyAt(i)
				slot, ok := slots[kk]
				if !ok {
					slot = int32(ng)
					slots[kk] = slot
					keys[ng] = kk
					counts[ng] = 0
					if needVal {
						accs[ng] = init
					}
					ng++
				}
				counts[slot]++
				if needVal {
					accs[slot] = fold(accs[slot], float64(valAt(i)))
				}
			}
		})
		// Copy out of the arena: partials outlive the morsel.
		part.keys = append([]int64(nil), keys[:ng]...)
		part.counts = append([]int64(nil), counts[:ng]...)
		if needVal {
			part.accs = append([]float64(nil), accs[:ng]...)
		}
		PutArena(a)
	}

	parts := make([]fusedGroupPart, pl.ms.slots())
	pl.eachMorsel(sp, func(k, lo, hi int) {
		accumulate(&parts[k], hi-lo, func(visit func(s, e int)) { pl.morselRuns(k, lo, hi, visit) })
	})

	// Merge partials in morsel order: global first-occurrence group
	// order equals the serial gathered scan's, whatever the morsel
	// boundaries were.
	a := GetArena()
	gslots := a.IntSlots()
	totalG := 0
	for i := range parts {
		totalG += len(parts[i].keys)
	}
	keys := a.Int64s(totalG)
	counts := a.Int64s(totalG)
	var accs []float64
	if needVal {
		accs = a.Floats(totalG)
	}
	ng := 0
	matched := int64(0)
	for pi := range parts {
		part := &parts[pi]
		for gi, k := range part.keys {
			slot, ok := gslots[k]
			if !ok {
				slot = int32(ng)
				gslots[k] = slot
				keys[ng] = k
				counts[ng] = 0
				if needVal {
					accs[ng] = init
				}
				ng++
			}
			counts[slot] += part.counts[gi]
			if needVal {
				accs[slot] = fold(accs[slot], part.accs[gi])
			}
		}
		for _, c := range part.counts {
			matched += c
		}
	}

	headVal := func(k int64) Value {
		if codes != nil {
			return NewStr(keyStrs[k])
		}
		return typedInt(gb.TailType(), k)
	}
	outTail := FloatT
	if op == "count" {
		outTail = IntT
	}
	out := NewBATCap(materialType(gb.TailType()), outTail, ng)
	for g := 0; g < ng; g++ {
		switch op {
		case "count":
			out.MustInsert(headVal(keys[g]), NewInt(counts[g]))
		case "avg":
			out.MustInsert(headVal(keys[g]), NewFloat(accs[g]/float64(counts[g])))
		default:
			out.MustInsert(headVal(keys[g]), NewFloat(accs[g]))
		}
	}
	PutArena(a)

	return out, pl.finish(sp, stages, "", int(matched), len(parts)), nil
}

// groupPositions is the operator-at-a-time reference for
// GroupAggregate once the qualifying positions are materialized:
// gather group and aggregate columns, run the BAT group operators.
func groupPositions(gb, ab *BAT, idx []int, op string) (*BAT, error) {
	wrap := &BAT{head: gb.tail.Gather(idx), tail: ab.tail.Gather(idx)}
	switch op {
	case "count":
		return wrap.GroupCount()
	case "sum":
		return wrap.GroupSum()
	case "avg":
		return wrap.GroupAvg()
	case "min":
		return wrap.GroupMin()
	}
	return wrap.GroupMax()
}

// JoinProbe executes select→join-probe fused: the rows of the
// pipeline's predicate BAT whose tail qualifies probe the hash index
// of other's head directly, emitting [pred.head, other.tail] match
// pairs morsel-at-a-time without materializing the filtered BAT. The
// result is byte-identical to SelectRange followed by Join.
func (p *Pipeline) JoinProbe(ctx context.Context, other *BAT) (*BAT, *FusedInfo, error) {
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", p.pred)
	defer sp.Finish()
	stages := "select→probe"
	b, pl, reason, err := p.s.planSelect(p.pred, nil, p.lo, p.hi, true)
	if err != nil {
		return nil, nil, err
	}
	if reason == "" && !headCompatible(b.tail.Type(), other.head.Type()) {
		return nil, nil, fmt.Errorf("%w: join tail %v with head %v", ErrTypeMismatch, b.tail.Type(), other.head.Type())
	}
	if reason != "" {
		idx := pl.positions(sp)
		filtered := &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}
		out, err := filtered.Join(other)
		return out, pl.finish(sp, stages, reason, len(idx), 0), err
	}

	opJoin.Inc()
	in := voidProbe(b.tail, other)
	var ht hashIndex
	if in == nil {
		ht = buildHashIndex(other.head)
	}
	probe := func(lIdx, rIdx *[]int, ranges func(visit func(s, e int))) int {
		matched := 0
		ranges(func(s, e int) {
			for i := s; i < e; i++ {
				matched++
				if in != nil {
					if j, ok := in(i); ok {
						*lIdx = append(*lIdx, i)
						*rIdx = append(*rIdx, j)
					}
					continue
				}
				for _, j := range ht.lookup(b.tail.Get(i)) {
					*lIdx = append(*lIdx, i)
					*rIdx = append(*rIdx, j)
				}
			}
		})
		return matched
	}

	nm := pl.ms.slots()
	lParts := make([][]int, nm)
	rParts := make([][]int, nm)
	mParts := make([]int, nm)
	pl.eachMorsel(sp, func(k, lo, hi int) {
		var ls, rs []int
		mParts[k] = probe(&ls, &rs, func(visit func(s, e int)) { pl.morselRuns(k, lo, hi, visit) })
		lParts[k], rParts[k] = ls, rs
	})
	total, matched := 0, 0
	for _, part := range lParts {
		total += len(part)
	}
	lIdx := make([]int, 0, total)
	rIdx := make([]int, 0, total)
	for m := range lParts {
		lIdx = append(lIdx, lParts[m]...)
		rIdx = append(rIdx, rParts[m]...)
		matched += mParts[m]
	}

	out := &BAT{head: b.head.Gather(lIdx), tail: other.tail.Gather(rIdx)}
	return out, pl.finish(sp, stages, "", matched, nm), nil
}
