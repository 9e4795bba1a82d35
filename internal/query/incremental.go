package query

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/obs"
)

// Catalog exposes the engine's catalog. The subscription manager reads
// kernel watermarks and epochs through it to decide which standing
// queries a batch of appends may have affected.
func (e *Engine) Catalog() *cobra.Catalog { return e.pre.Catalog() }

// eventLeaf accumulates the type-filtered event rows an EVENT or TEXT
// condition has consumed, kept in start order with ties in append (row)
// order — exactly Catalog.Events' ordering. Each re-evaluation reads
// only rows past the watermark and merges them in stably, so a leaf
// costs what the new rows cost, not the whole history again.
type eventLeaf struct {
	rows int
	evs  []cobra.Event
}

// featureLeaf carries a feature condition's runs across watermarks:
// the samples consumed, the run still open at the last watermark
// (Len 0 when none), and the segments of the runs closed before it.
// The kernel's runs over the appended tail extend the open run when
// they start where it stopped, so a leaf fed tail after tail holds the
// runs of the full series from row 0.
type featureLeaf struct {
	rows   int
	open   monet.Run
	closed []Result
}

// Incremental is the COQL condition evaluator: the one walker that
// turns a condition tree into segments, for standing and one-shot
// queries alike.
//
// A standing Incremental evaluates one parsed query repeatedly over a
// growing video, re-scanning only rows appended since the previous
// evaluation. Leaf conditions cache per-node state (event rows in
// append order, feature runs); combination operators recompute over
// the cached leaf sets, so every Eval returns exactly what
// Engine.Execute would return at the same watermark — the basis for
// the streaming path's byte-identity guarantee.
//
// A one-shot Incremental (Engine.Execute) keeps no leaf state: its
// leaves read from row 0, feature leaves through the kernel's access
// paths, and binary operands run in order on the caller's goroutine
// while the kernel fans large selects out per morsel.
//
// A standing Incremental is not safe for concurrent use; the
// subscription manager owns one per class of identical standing
// queries and serializes its evaluations.
type Incremental struct {
	eng     *Engine
	q       *Query
	oneShot bool
	// duration is the video duration the last Eval read.
	duration float64

	events   map[Cond]*eventLeaf
	features map[*FeatureCond]*featureLeaf
}

// NewIncremental prepares a standing evaluation of q against the
// engine's catalog.
func NewIncremental(eng *Engine, q *Query) *Incremental {
	return &Incremental{
		eng:      eng,
		q:        q,
		events:   map[Cond]*eventLeaf{},
		features: map[*FeatureCond]*featureLeaf{},
	}
}

// Query returns the parsed standing query.
func (inc *Incremental) Query() *Query { return inc.q }

// Duration returns the video duration the last Eval evaluated at: the
// watermark of its result.
func (inc *Incremental) Duration() float64 { return inc.duration }

// DepNames returns the kernel BAT names whose epochs gate
// re-evaluation: if none has advanced since the last Eval, the
// standing query's result cannot have changed and the subscription
// manager skips it. The walk is shared with the result cache's
// freshness fingerprint — see DepNamesOf.
func (inc *Incremental) DepNames() []string {
	return DepNamesOf(inc.q)
}

// Eval evaluates the query at the current watermark. The span
// (nil-safe) receives the same child structure in both modes, with
// scans annotated by the row they started from.
func (inc *Incremental) Eval(ctx context.Context, span *obs.Span) ([]Result, error) {
	q := inc.q
	reqs := requirements(q.Where)
	ensSp := span.StartChild("preprocess.ensure")
	ensSp.SetAttr("level", "conceptual")
	plan, err := inc.eng.pre.EnsureTraced(q.Video, reqs, inc.eng.MinQuality, ensSp)
	if plan != nil {
		ensSp.SetAttr("satisfied", strconv.Itoa(len(plan.Satisfied)))
		ensSp.SetAttr("ran", strconv.Itoa(len(plan.Ran)))
	}
	ensSp.Finish()
	if err != nil && !errors.Is(err, cobra.ErrNoExtractor) {
		return nil, err
	}
	cat := inc.eng.pre.Catalog()
	v, err := cat.Video(q.Video)
	if err != nil {
		return nil, err
	}
	inc.duration = v.Duration
	if q.Where == nil {
		whole := []Result{{Interval: cobra.Interval{Start: 0, End: v.Duration}, Confidence: 1}}
		return postProcess(q, v.Duration, whole), nil
	}
	evalSp := span.StartChild("coql.eval")
	evalSp.SetAttr("level", "logical")
	if !inc.oneShot {
		evalSp.SetAttr("mode", "incremental")
	}
	res, err := inc.evalCond(ctx, cat, q.Video, v.Duration, q.Where, evalSp)
	evalSp.SetAttr("segments", strconv.Itoa(len(res)))
	evalSp.Finish()
	if err != nil {
		return nil, err
	}
	return postProcess(q, v.Duration, res), nil
}

// evalCond evaluates a condition tree bottom-up over segment sets.
// Event, text and feature leaves read only the rows past their
// watermark (row 0 for a one-shot query); object leaves read the whole
// object, since the object layer is not append-streamed; combination
// operators run the same set algebra over the leaf sets in both
// modes, which is what makes standing output identical to a one-shot
// evaluation.
func (inc *Incremental) evalCond(ctx context.Context, cat *cobra.Catalog, video string, duration float64, c Cond, span *obs.Span) ([]Result, error) {
	switch n := c.(type) {
	case *EventCond:
		leaf := span.StartChild("eval:event")
		leaf.SetAttr("level", "logical")
		leaf.SetAttr("type", n.Type)
		defer leaf.Finish()
		evs := inc.eventRows(cat, video, n.Type, c, leaf)
		var out []Result
		for _, ev := range evs {
			if !attrsMatch(ev.Attrs, n.Attrs) {
				continue
			}
			out = append(out, Result{Interval: ev.Interval, Confidence: ev.Confidence, Attrs: ev.Attrs})
		}
		return out, nil

	case *TextCond:
		leaf := span.StartChild("eval:text")
		leaf.SetAttr("level", "logical")
		leaf.SetAttr("word", n.Word)
		defer leaf.Finish()
		evs := inc.eventRows(cat, video, CaptionEventType, c, leaf)
		var out []Result
		for _, ev := range evs {
			if strings.EqualFold(ev.Attr("word"), n.Word) {
				out = append(out, Result{Interval: ev.Interval, Confidence: ev.Confidence, Attrs: ev.Attrs})
			}
		}
		return out, nil

	case *FeatureCond:
		leaf := span.StartChild("eval:feature")
		leaf.SetAttr("level", "logical")
		leaf.SetAttr("feature", n.Name)
		defer leaf.Finish()
		return inc.featureRuns(ctx, cat, video, n, leaf)

	case *ObjectCond:
		leaf := span.StartChild("eval:object")
		leaf.SetAttr("level", "logical")
		leaf.SetAttr("name", n.Name)
		defer leaf.Finish()
		scan := scanSpan(leaf, "cobra/object/"+video+"/appearances")
		obj, err := cat.Object(video, n.Name)
		scan.Finish()
		if err != nil {
			return nil, nil // object never appears: empty result
		}
		var out []Result
		for _, iv := range obj.Appearances {
			out = append(out, Result{Interval: iv, Confidence: 1,
				Attrs: map[string]string{"object": obj.Name, "class": obj.Class}})
		}
		return out, nil

	case *NotCond:
		op := span.StartChild("eval:not")
		op.SetAttr("level", "logical")
		defer op.Finish()
		x, err := inc.evalCond(ctx, cat, video, duration, n.X, op)
		if err != nil {
			return nil, err
		}
		return complement(x, duration), nil

	case *AndCond:
		op := span.StartChild("eval:and")
		op.SetAttr("level", "logical")
		defer op.Finish()
		l, r, err := inc.evalBoth(ctx, cat, video, duration, n.L, n.R, op)
		if err != nil {
			return nil, err
		}
		return intersect(l, r), nil

	case *OrCond:
		op := span.StartChild("eval:or")
		op.SetAttr("level", "logical")
		defer op.Finish()
		l, r, err := inc.evalBoth(ctx, cat, video, duration, n.L, n.R, op)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil

	case *TemporalCond:
		op := span.StartChild("eval:temporal")
		op.SetAttr("level", "logical")
		op.SetAttr("rel", n.Rel)
		defer op.Finish()
		l, r, err := inc.evalBoth(ctx, cat, video, duration, n.L, n.R, op)
		if err != nil {
			return nil, err
		}
		return temporalSemijoin(l, r, n.Rel, n.Gap)
	}
	return nil, fmt.Errorf("query: unknown condition %T", c)
}

// evalBoth evaluates a binary condition's operands, left then right,
// one-shot and standing queries alike. An interactive query's subtrees
// cost microseconds, less than handing each to a pool worker and
// waiting for it, and a large leaf still fans out per morsel inside
// the kernel; standing queries get their parallelism across query
// classes, and in-order evaluation keeps their per-node leaf caches
// free of locks. Errors from both sides are joined.
func (inc *Incremental) evalBoth(ctx context.Context, cat *cobra.Catalog, video string, duration float64, l, r Cond, span *obs.Span) ([]Result, []Result, error) {
	lRes, lErr := inc.evalCond(ctx, cat, video, duration, l, span)
	rRes, rErr := inc.evalCond(ctx, cat, video, duration, r, span)
	return lRes, rRes, errors.Join(lErr, rErr)
}

// eventRows returns the accumulated events of one type in start order,
// reading only rows appended since the leaf's watermark. The slice is
// the leaf's own: callers read it and filter into fresh slices. A
// one-shot query reads from row 0 into a leaf it does not keep.
func (inc *Incremental) eventRows(cat *cobra.Catalog, video, typ string, key Cond, span *obs.Span) []cobra.Event {
	leaf := inc.events[key]
	if leaf == nil {
		leaf = &eventLeaf{}
		if !inc.oneShot {
			inc.events[key] = leaf
		}
	}
	scan := scanSpan(span, "cobra/event/"+video+"/*")
	fresh, upTo := cat.EventsSince(video, typ, leaf.rows)
	scan.SetAttr("rows", strconv.Itoa(len(fresh)))
	scan.SetAttr("access", "tail from="+strconv.Itoa(leaf.rows))
	scan.Resources().AddScanned(len(fresh))
	scan.Finish()
	leaf.evs = mergeByStart(leaf.evs, fresh)
	leaf.rows = upTo
	return leaf.evs
}

// mergeByStart merges the appended tail into the start-ordered events,
// in place from the back: an old event stays ahead of a new one with
// the same start, so the result is the stable sort of all rows in
// append order, and only events that start after the tail's earliest
// one move.
func mergeByStart(evs, tail []cobra.Event) []cobra.Event {
	sort.SliceStable(tail, func(i, j int) bool { return tail[i].Interval.Start < tail[j].Interval.Start })
	if len(evs) == 0 {
		return tail
	}
	i, j := len(evs)-1, len(tail)-1
	evs = append(evs, tail...)
	for k := len(evs) - 1; j >= 0 && i >= 0; k-- {
		if evs[i].Interval.Start > tail[j].Interval.Start {
			evs[k] = evs[i]
			i--
		} else {
			evs[k] = tail[j]
			j--
		}
	}
	// Tail events left over (i < 0) start before every old one.
	copy(evs, tail[:j+1])
	return evs
}

// featureRuns advances a feature leaf over the samples appended since
// its watermark and returns every run found so far, including the
// provisional run still open at the watermark: exactly the runs of the
// whole series. The kernel range-selects the tail (featureBounds), its
// monet.select span under the leaf's. A one-shot query reads from row
// 0, through the access paths, into a leaf it does not keep.
func (inc *Incremental) featureRuns(ctx context.Context, cat *cobra.Catalog, video string, n *FeatureCond, span *obs.Span) ([]Result, error) {
	leaf := inc.features[n]
	if leaf == nil {
		leaf = &featureLeaf{}
		if !inc.oneShot {
			inc.features[n] = leaf
		}
	}
	lo, hi := featureBounds(n.Op, n.Val)
	runs, rate, total, err := cat.FeatureRuns(obs.ContextWithSpan(ctx, span), video, n.Name, leaf.rows, lo, hi)
	if err != nil {
		span.SetAttr("error", err.Error())
		return nil, err
	}
	step := 1 / rate
	for _, r := range runs {
		if leaf.open.Start+leaf.open.Len == r.Start {
			leaf.open.Len += r.Len
			continue
		}
		leaf.close(step)
		leaf.open = r
	}
	if leaf.open.Start+leaf.open.Len < total {
		leaf.close(step)
	}
	leaf.rows = total
	out := append(make([]Result, 0, len(leaf.closed)+1), leaf.closed...)
	if seg, ok := runSegment(leaf.open, step); ok {
		out = append(out, seg)
	}
	return out, nil
}

// close moves the open run, unless it is noise, to the closed ones.
func (leaf *featureLeaf) close(step float64) {
	if seg, ok := runSegment(leaf.open, step); ok {
		leaf.closed = append(leaf.closed, seg)
	}
	leaf.open = monet.Run{}
}

// runSegment returns the segment a run of samples a..b spans,
// [a*step, (b+1)*step), and whether it clears the minRunDur noise
// floor.
func runSegment(r monet.Run, step float64) (Result, bool) {
	start, end := float64(r.Start)*step, float64(r.Start+r.Len)*step
	return Result{Interval: cobra.Interval{Start: start, End: end}, Confidence: 1}, end-start >= minRunDur
}
