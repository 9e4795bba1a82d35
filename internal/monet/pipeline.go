package monet

import (
	"context"
	"fmt"
	"math"

	"cobra/internal/obs"
)

// Fused vectorized pipelines: select→aggregate executed
// morsel-at-a-time with no intermediate OID BAT between the operators.
// The classic operator-at-a-time path materializes the qualifying
// positions of a range select as an []int, gathers the aggregate column
// through it, and only then aggregates; a Pipeline instead pushes the
// predicate into the consumer: each morsel finds its matching rows as
// runs read off a stack match bitmap and feeds them straight to the
// aggregate. Per-morsel partials merge in morsel order, so a fused
// result is byte-identical to the unfused one — and whenever the fused
// gate cannot promise that identity to its callers (mixed-type bounds,
// inexact float sums, column shapes without an integer reader), the
// pipeline reports itself unfused and executes the operator-at-a-time
// path instead. SelectRuns hands the same runs to callers that want
// the matches themselves.
//
// The predicate is one selectPlan of accesspath.go, fused or not: zone
// maps prune whole morsels before the scan runs and settle most zones
// of the rest without a compare, dict-encoded string
// columns match int32 codes without ever decoding the tail, and every
// scan is the typed kernel of rangesel.go.

// Fused-execution metrics (monet.fused.*): pipelines that ran fused vs
// fell back to the operator-at-a-time path, rows consumed in-register,
// and runs emitted instead of position slices.
var (
	cFusedPipelines = obs.C("monet.fused.pipelines")
	cFusedFallbacks = obs.C("monet.fused.fallbacks")
	cFusedRows      = obs.C("monet.fused.rows")
	cFusedRuns      = obs.C("monet.fused.runs")
	hFusedLat       = obs.H("monet.fused.latency")
	hFusedSpd       = obs.H("monet.fused.speedup")
)

// Run is a maximal range of consecutive qualifying positions
// [Start, Start+Len). Fused pipelines hand candidate positions to
// consumers as runs instead of allocated position slices.
type Run struct {
	// Start is the first qualifying position of the run.
	Start int
	// Len is the number of consecutive qualifying positions.
	Len int
}

// RunsOf converts an ascending position list to its maximal runs.
func RunsOf(pos []int) []Run {
	var runs []Run
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && pos[j] == pos[j-1]+1 {
			j++
		}
		runs = append(runs, Run{Start: pos[i], Len: j - i})
		i = j
	}
	return runs
}

// FusedInfo describes how one pipeline executed: whether it ran fused,
// the pipeline stages, the fallback reason when it did not, and the
// access-path detail of the selection stage.
type FusedInfo struct {
	// Fused reports whether the fused path ran (false = the gate chose
	// the byte-identical operator-at-a-time fallback).
	Fused bool
	// Stages names the pipeline stages, e.g. "select→sum" or
	// "select→runs".
	Stages string
	// Fallback is the fused gate's reason when Fused is false.
	Fallback string
	// Access describes the selection stage's access path.
	Access *AccessInfo
}

// String renders the info the way EXPLAIN and trace spans attach it.
func (fi *FusedInfo) String() string {
	s := "fused=" + fi.Stages
	if !fi.Fused {
		s = "fused=no(" + fi.Fallback + ")"
	}
	if fi.Access != nil {
		s += " " + fi.Access.String()
	}
	return s
}

// Pipeline is a fused select→consume execution over a stored BAT: a
// range predicate over one named column, pushed directly into an
// aggregate over a positionally aligned column of the same store.
type Pipeline struct {
	s    *Store
	pred string
	lo   Value
	hi   Value
}

// Pipeline starts a fused pipeline selecting the rows of the named
// BAT whose tail lies in [lo, hi].
func (s *Store) Pipeline(pred string, lo, hi Value) *Pipeline {
	return &Pipeline{s: s, pred: pred, lo: lo, hi: hi}
}

// fuseReason is the fused gate's verdict on a predicate: "" when a
// fused pipeline over col may report itself fused, else why not.
func fuseReason(col Column, lo, hi Value) string {
	if lo.Typ != col.Type() || hi.Typ != col.Type() {
		return "mixed-type bounds"
	}
	switch col.(type) {
	case *strColumn, *intColumn, *oidColumn, *floatColumn:
		return ""
	}
	return fmt.Sprintf("unfusable predicate column type %v", col.Type())
}

// eachMorsel fans a fused consumer over the morsels the plan visits,
// passing each callback a dense slot k for its partial-state cell plus
// the row range. Wide inputs run on the shared pool; the caller merges
// partials in slot order, which is morsel order.
func (pl *selectPlan) eachMorsel(sp *obs.Span, fn func(k, lo, hi int)) {
	pool, _ := poolFor(pl.ms.n)
	runMorselSet(pool, pl.ms, hFusedLat, hFusedSpd, sp, fn)
}

// finish stamps a pipeline's outcome on its span and the fused
// counters and returns the FusedInfo describing it.
func (pl *selectPlan) finish(sp *obs.Span, stages, reason string, matched, runs int) *FusedInfo {
	pl.info.Matched = matched
	fi := &FusedInfo{Fused: reason == "", Stages: stages, Fallback: reason, Access: pl.info}
	if fi.Fused {
		cFusedPipelines.Inc()
		cFusedRows.Add(int64(matched))
		cFusedRuns.Add(int64(runs))
	} else {
		cFusedFallbacks.Inc()
	}
	if sp != nil { // untraced pipelines skip formatting the span lines
		sp.SetAttr("access", pl.info.String())
		sp.SetAttr("fused", fi.String())
	}
	sp.Resources().AddScanned(scannedRows(pl.info))
	return fi
}

// intReader returns an int64 accessor over a column whose values are
// exactly representable integers (int/oid/bit), or nil: the agg-side
// gate for fused sum/avg/min/max, where float tails must fall back to
// keep bit-identity under reordered partial sums.
func intReader(c Column) func(i int) int64 {
	switch c := c.(type) {
	case *intColumn:
		v := c.v
		return func(i int) int64 { return v[i] }
	case *oidColumn:
		v := c.v
		return func(i int) int64 { return int64(v[i]) }
	case *boolColumn:
		v := c.v
		return func(i int) int64 { return int64(b2u(v[i])) }
	}
	return nil
}

// scalarPart is one morsel's partial scalar-aggregate state.
type scalarPart struct {
	sum    float64
	count  int64
	best   int64
	bestOK bool
}

// mergeScalar folds src into dst in morsel order: sums add, counts
// add, and min/max keep the first-occurrence extreme under the same
// strict compare the serial scan uses.
func mergeScalar(dst, src *scalarPart, sign int64) {
	dst.sum += src.sum
	dst.count += src.count
	if src.bestOK && (!dst.bestOK || sign*(src.best-dst.best) > 0) {
		dst.best = src.best
		dst.bestOK = true
	}
}

// Aggregate executes select→aggregate fused: the op ("count", "sum",
// "avg", "min", "max") over the named aggregate column restricted to
// the rows matched by the pipeline's predicate, without materializing
// positions or a filtered BAT. Results are byte-identical to
// SelectPositions + Gather + the BAT aggregate; when the gate cannot
// promise that (mixed-type predicates, float aggregate columns),
// it reports itself unfused and computes that fallback's answer: sum
// and avg over a float column as one ordered pass over the runs
// (sumFloatRuns), everything else through the positions.
func (p *Pipeline) Aggregate(ctx context.Context, agg, op string) (Value, *FusedInfo, error) {
	var sign int64
	switch op {
	case "min":
		sign = -1
	case "max":
		sign = 1
	case "count", "sum", "avg":
	default:
		return Value{}, nil, fmt.Errorf("monet: fused aggregate: unknown op %q", op)
	}
	ab, err := p.s.Get(agg)
	if err != nil {
		return Value{}, nil, err
	}
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", p.pred)
	defer sp.Finish()
	b, pl, err := p.s.planSelect(p.pred, nil, p.lo, p.hi)
	if err != nil {
		return Value{}, nil, err
	}
	reason := fuseReason(b.tail, p.lo, p.hi)
	if ab.Len() != b.Len() {
		return Value{}, nil, fmt.Errorf("monet: fused aggregate: %q has %d rows, %q has %d", p.pred, b.Len(), agg, ab.Len())
	}
	stages := "select→" + op
	f, floatSum := ab.tail.(*floatColumn)
	floatSum = floatSum && reason == "" && (op == "sum" || op == "avg")
	var valAt func(i int) int64
	if op != "count" {
		if valAt = intReader(ab.tail); valAt == nil && reason == "" {
			reason = fmt.Sprintf("inexact or non-integer aggregate column %v", ab.TailType())
		}
	}
	if floatSum {
		runs, matched := pl.runs(sp)
		s := sumFloatRuns(f.v, runs, matched)
		if op == "avg" {
			s = avgOf(s, matched)
		}
		return NewFloat(s), pl.finish(sp, stages, reason, matched, 0), nil
	}
	if reason != "" {
		idx := pl.positions(sp)
		v, err := aggregatePositions(ab, idx, op)
		return v, pl.finish(sp, stages, reason, len(idx), 0), err
	}

	total := consumeScalar(pl, sp, valAt, sign)
	fi := pl.finish(sp, stages, "", int(total.count), pl.ms.slots())
	switch op {
	case "count":
		return NewInt(total.count), fi, nil
	case "sum":
		return NewFloat(total.sum), fi, nil
	case "avg":
		return NewFloat(avgOf(total.sum, int(total.count))), fi, nil
	}
	if !total.bestOK {
		return Value{}, fi, fmt.Errorf("monet: fused aggregate: %s over empty selection", op)
	}
	return typedInt(ab.TailType(), total.best), fi, nil
}

// avgOf is BAT.Avg's mean of n values summing to sum: NaN when n is 0.
func avgOf(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// sumFloatRuns sums the rows of runs, ascending, with the association
// BAT.Sum gives the gathered column of those matched rows: one serial
// fold, or — where poolFor would fan a BAT of matched rows out — the
// in-order total of partials of MorselSize consecutive qualifying rows,
// each started from +0 as BAT.Sum starts its per-morsel partials.
func sumFloatRuns(v []float64, runs []Run, matched int) float64 {
	_, chunked := poolFor(matched)
	total, part, left := 0.0, 0.0, MorselSize
	for _, r := range runs {
		for _, x := range v[r.Start : r.Start+r.Len] {
			part += x
			if left--; chunked && left == 0 {
				total, part, left = total+part, 0, MorselSize
			}
		}
	}
	if !chunked {
		return part
	}
	if left < MorselSize {
		total += part
	}
	return total
}

// typedInt reconstructs the Value an integer-domain column's Get would
// box for payload k.
func typedInt(t Type, k int64) Value {
	switch t {
	case OIDT:
		return NewOID(OID(k))
	case BoolT:
		return NewBool(k != 0)
	}
	return NewInt(k)
}

// consumeScalar runs the fused scalar-aggregate consumer over the plan
// and returns the morsel-order merge of the partials. valAt is nil for
// count; sign is ±1 for max/min and 0 for the sums.
func consumeScalar(pl *selectPlan, sp *obs.Span, valAt func(i int) int64, sign int64) scalarPart {
	consume := func(part *scalarPart, lo, hi int) {
		part.count += int64(hi - lo)
		if valAt == nil {
			return
		}
		for i := lo; i < hi; i++ {
			v := valAt(i)
			if sign == 0 {
				part.sum += float64(v)
			} else if !part.bestOK || sign*(v-part.best) > 0 {
				part.best = v
				part.bestOK = true
			}
		}
	}
	var total scalarPart
	parts := make([]scalarPart, pl.ms.slots())
	pl.eachMorsel(sp, func(k, lo, hi int) {
		part := &parts[k]
		pl.morselRuns(k, lo, hi, func(s, e int) { consume(part, s, e) })
	})
	for m := range parts {
		mergeScalar(&total, &parts[m], sign)
	}
	return total
}

// SelectRuns returns the qualifying rows of the named BAT's tail range
// select as maximal runs instead of a position slice: the kernel's
// match bitmap is read off as runs directly, so a 50%-selective scan
// over a clustered column returns a handful of runs where
// SelectPositions would allocate half a million ints. The result is
// always exactly RunsOf(SelectPositions(...)).
func (s *Store) SelectRuns(name string, lo, hi Value) ([]Run, *FusedInfo, error) {
	runs, _, fi, err := s.SelectRunsFrom(context.Background(), name, 0, lo, hi)
	return runs, fi, err
}

// SelectRunsFrom is SelectRuns over the rows [from, n) of the named
// BAT under a trace context, where n is its row count in the snapshot
// the select read, returned beside the runs. The select records a
// "monet.select" span whose access and fused attrs describe the
// pipeline, with morsel child spans for parallel scans. From row 0 the
// select takes the access paths. Past it — the tail a standing query
// has not seen yet — the typed kernel scans the tail rows alone and
// builds and reads no index: a growing BAT's epoch moves with every
// append, so an index would be rebuilt for every tail.
func (s *Store) SelectRunsFrom(ctx context.Context, name string, from int, lo, hi Value) ([]Run, int, *FusedInfo, error) {
	sp := obs.SpanFromContext(ctx).StartChild("monet.select")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", name)
	defer sp.Finish()
	var b *BAT
	var pl *selectPlan
	var err error
	if from <= 0 {
		b, pl, err = s.planSelect(name, nil, lo, hi)
	} else if b, err = s.Get(name); err == nil {
		ms := morselSet{n: b.Len(), from: min(from, b.Len())}
		pl = &selectPlan{pred: compileRange(b.tail, lo, hi), ms: ms, lat: hPoolSelectLat, spd: hPoolSelectSpd,
			info: &AccessInfo{Path: PathScan, Rows: ms.n - ms.from}}
	}
	if err != nil {
		return nil, 0, nil, err
	}
	runs, matched := pl.runs(sp)
	return runs, b.Len(), pl.finish(sp, "select→runs", fuseReason(b.tail, lo, hi), matched, len(runs)), nil
}

// aggregatePositions is the operator-at-a-time reference the gate
// falls back to once the qualifying positions are materialized: gather
// the aggregate column, aggregate the result.
func aggregatePositions(ab *BAT, idx []int, op string) (Value, error) {
	if op == "count" {
		return NewInt(int64(len(idx))), nil
	}
	wrap := &BAT{head: &voidColumn{n: len(idx)}, tail: ab.tail.Gather(idx)}
	switch op {
	case "sum":
		s, err := wrap.Sum()
		return NewFloat(s), err
	case "avg":
		s, err := wrap.Avg()
		return NewFloat(s), err
	}
	v, ok := wrap.Min()
	if op == "max" {
		v, ok = wrap.Max()
	}
	if !ok {
		return Value{}, fmt.Errorf("monet: fused aggregate: %s over empty selection", op)
	}
	return v, nil
}
