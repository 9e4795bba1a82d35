package query

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/rules"
)

// Query-level metrics. The latency histogram backs the server's STATS
// p50/p95/p99 report; slow queries additionally land in
// obs.DefaultSlowLog.
var (
	cQueries     = obs.C("coql.queries")
	cQueryErrors = obs.C("coql.query.errors")
	hQueryLat    = obs.H("coql.query.latency")
)

// Result is one retrieved video segment.
type Result struct {
	Interval   cobra.Interval
	Confidence float64
	Attrs      map[string]string
}

// CaptionEventType is the event type under which recognized
// superimposed-text words are stored in the catalog; TextCond queries
// read it.
const CaptionEventType = "caption"

// Engine evaluates COQL queries against a catalog, routing missing
// metadata through the query preprocessor.
type Engine struct {
	pre *cobra.Preprocessor
	// MinQuality is the quality floor passed to the preprocessor.
	MinQuality float64
}

// NewEngine returns a query engine over the preprocessor.
func NewEngine(pre *cobra.Preprocessor) *Engine {
	return &Engine{pre: pre, MinQuality: 0.5}
}

// Run parses and executes a COQL statement.
func (e *Engine) Run(src string) ([]Result, error) {
	res, _, err := e.RunTraced(src)
	return res, err
}

// RunTraced parses and executes a COQL statement under a fresh trace;
// see RunTracedCtx.
func (e *Engine) RunTraced(src string) ([]Result, *obs.Span, error) {
	return e.RunTracedCtx(context.Background(), src)
}

// RunTracedCtx parses and executes a COQL statement as one trace: the
// root "coql.query" span gets a process-unique trace ID and a shared
// resource accumulator, and the span handle rides ctx down through the
// preprocessor, the COQL condition evaluator, and the monet kernel's
// morsel fan-outs. The span tree covers all three levels of the stack:
// conceptual (parse, preprocessing, method selection), logical
// (condition-tree evaluation) and physical (kernel selects with their
// access paths and per-morsel queue-wait/run timings).
//
// On completion the trace is pushed to obs.DefaultTraces (TRACEDUMP's
// ring) and, when slow enough, to obs.DefaultSlowLog with its full
// span tree. The span is returned even on error, annotated with the
// failure.
func (e *Engine) RunTracedCtx(ctx context.Context, src string) ([]Result, *obs.Span, error) {
	root := obs.StartTrace("coql.query")
	root.SetAttr("level", "conceptual")
	root.SetAttr("query", src)
	cQueries.Inc()
	allocStart := obs.HeapAllocBytes()
	ctx = obs.ContextWithSpan(ctx, root)

	finish := func(nRes int, err error) {
		res := root.Resources()
		res.RowsReturned.Store(int64(nRes))
		res.AllocBytes.Store(obs.HeapAllocBytes() - allocStart)
		errStr := ""
		if err != nil {
			cQueryErrors.Inc()
			errStr = err.Error()
			root.SetAttr("error", errStr)
		}
		stat := res.Stat()
		root.SetAttr("resources", stat.String())
		d := root.Finish()
		hQueryLat.Observe(d)
		obs.DefaultTraces.Add(obs.Trace{
			ID:       root.TraceID(),
			Query:    src,
			Start:    root.StartTime(),
			Duration: d,
			Err:      errStr,
			Res:      stat,
			Root:     root,
		})
		obs.DefaultSlowLog.RecordTrace(src, d, root)
	}

	parseSp := root.StartChild("coql.parse")
	parseSp.SetAttr("level", "conceptual")
	q, err := Parse(src)
	parseSp.Finish()
	if err != nil {
		finish(0, err)
		return nil, root, err
	}
	res, err := e.executeTraced(ctx, q, root)
	finish(len(res), err)
	return res, root, err
}

// Execute evaluates a parsed query: it ensures required metadata is
// materialized, then evaluates the condition tree bottom-up over
// segment sets. Event types no engine provides are treated as
// user-defined, materialized-only types (they evaluate against
// whatever the catalog holds, possibly nothing); other extraction
// failures abort the query.
func (e *Engine) Execute(q *Query) ([]Result, error) {
	return e.executeTraced(context.Background(), q, nil)
}

// executeTraced is Execute with an optional (nil-safe) parent span;
// ctx carries the trace for the kernel layers below. A one-shot query
// is one evaluation of the standing-query evaluator, keeping no leaf
// state between calls.
func (e *Engine) executeTraced(ctx context.Context, q *Query, span *obs.Span) ([]Result, error) {
	return (&Incremental{eng: e, q: q, oneShot: true}).Eval(ctx, span)
}

// postProcess applies the query's trailing-window filter, ordering and
// limit to an evaluated segment set. Shared by the one-shot executor
// and the incremental (streaming) evaluator so both render identical
// results for the same watermark.
func postProcess(q *Query, duration float64, res []Result) []Result {
	if q.Window > 0 {
		cut := duration - q.Window
		kept := make([]Result, 0, len(res))
		for _, r := range res {
			if r.Interval.End > cut {
				kept = append(kept, r)
			}
		}
		res = kept
	}
	less := func(i, j int) bool { return res[i].Interval.Start < res[j].Interval.Start }
	if q.OrderBy == "confidence" {
		less = func(i, j int) bool {
			if res[i].Confidence != res[j].Confidence {
				return res[i].Confidence < res[j].Confidence
			}
			return res[i].Interval.Start < res[j].Interval.Start
		}
	}
	if q.Desc {
		inner := less
		less = func(i, j int) bool { return inner(j, i) }
	}
	sort.SliceStable(res, less)
	if q.Limit > 0 && len(res) > q.Limit {
		res = res[:q.Limit]
	}
	return res
}

// requirements walks the condition tree collecting metadata needs.
func requirements(c Cond) []cobra.Requirement {
	seen := map[string]bool{}
	var out []cobra.Requirement
	add := func(r cobra.Requirement) {
		k := r.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	var walk func(Cond)
	walk = func(c Cond) {
		switch n := c.(type) {
		case *EventCond:
			add(cobra.Requirement{Kind: cobra.NeedEvents, Name: n.Type})
		case *TextCond:
			add(cobra.Requirement{Kind: cobra.NeedEvents, Name: CaptionEventType})
		case *ObjectCond:
			add(cobra.Requirement{Kind: cobra.NeedObjects, Name: ""})
		case *FeatureCond:
			add(cobra.Requirement{Kind: cobra.NeedFeature, Name: n.Name})
		case *NotCond:
			walk(n.X)
		case *AndCond:
			walk(n.L)
			walk(n.R)
		case *OrCond:
			walk(n.L)
			walk(n.R)
		case *TemporalCond:
			walk(n.L)
			walk(n.R)
		}
	}
	if c != nil {
		walk(c)
	}
	return out
}

// scanSpan opens a physical-level span for a catalog/BAT scan; the
// caller finishes it via the returned func after recording row counts.
func scanSpan(parent *obs.Span, bat string) *obs.Span {
	sp := parent.StartChild("monet.scan")
	sp.SetAttr("level", "physical")
	sp.SetAttr("bat", bat)
	return sp
}

func attrsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if !strings.EqualFold(have[k], v) {
			return false
		}
	}
	return true
}

// minRunDur is the noise floor for feature runs: threshold crossings
// shorter than this are discarded, whichever access path found them.
const minRunDur = 0.3

// featureBounds converts a COQL comparison into the inclusive range
// the kernel's select understands; ok=false when the operator has no
// range form or the bound would not survive the float successor trick
// (NaN and infinite thresholds stay on the sample-by-sample path).
func featureBounds(op string, val float64) (lo, hi float64, ok bool) {
	if math.IsNaN(val) || math.IsInf(val, 0) {
		return 0, 0, false
	}
	switch op {
	case ">":
		return math.Nextafter(val, math.Inf(1)), math.Inf(1), true
	case ">=":
		return val, math.Inf(1), true
	case "<":
		return math.Inf(-1), math.Nextafter(val, math.Inf(-1)), true
	case "<=":
		return math.Inf(-1), val, true
	case "=":
		return val, val, true
	}
	return 0, 0, false
}

// indexedFeatureRuns evaluates a feature condition through the
// kernel's fused select→runs pipeline: the threshold becomes an
// inclusive range select over the stored series whose qualifying
// positions come back as maximal runs — on the fused path no
// intermediate position list is materialized at all, and zone map
// or dictionary answer the predicate without loading the
// column into Go values. ok=false falls back to the sample-by-sample
// run detection of featureRows — when the operator has no range
// form, or the unfused kernel answered with a plain scan (a scan's
// Compare treats NaN as matching any range, so only fused loops —
// whose gate proves the column NaN-free — and NaN-free indexed paths
// are guaranteed equivalent to the float comparison).
func indexedFeatureRuns(ctx context.Context, cat *cobra.Catalog, video string, n *FeatureCond, leaf *obs.Span) ([]Result, bool) {
	lo, hi, ok := featureBounds(n.Op, n.Val)
	if !ok {
		return nil, false
	}
	rate, total, err := cat.FeatureMeta(video, n.Name)
	if err != nil {
		return nil, false
	}
	runs, fi, err := cat.FeatureRunsCtx(obs.ContextWithSpan(ctx, leaf), video, n.Name, lo, hi)
	if err != nil || (!fi.Fused && (fi.Access == nil || fi.Access.Path == monet.PathScan)) {
		return nil, false
	}
	scan := scanSpan(leaf, "cobra/feature/"+video+"/"+n.Name)
	scan.SetAttr("rows", strconv.Itoa(total))
	scan.SetAttr("access", fi.Access.String())
	scan.SetAttr("fused", fi.String())
	scan.Finish()
	return resultsFromRuns(runs, rate), true
}

// resultsFromRuns converts the kernel's qualifying-position runs into
// segments, with boundaries and noise floor identical to featureRows:
// a run of consecutive positions a..b spans [a*step, (b+1)*step).
func resultsFromRuns(runs []monet.Run, rate float64) []Result {
	step := 1 / rate
	var out []Result
	for _, r := range runs {
		start := float64(r.Start) * step
		end := float64(r.Start+r.Len) * step
		if end-start >= minRunDur {
			out = append(out, Result{Interval: cobra.Interval{Start: start, End: end}, Confidence: 1})
		}
	}
	return out
}

// featureTest compiles a COQL comparison operator into a per-sample
// predicate; unknown operators match nothing.
func featureTest(op string, val float64) func(float64) bool {
	return func(v float64) bool {
		switch op {
		case ">":
			return v > val
		case ">=":
			return v >= val
		case "<":
			return v < val
		case "<=":
			return v <= val
		case "=":
			return v == val
		}
		return false
	}
}

// intersect pairs overlapping segments from both sides, returning the
// intersection intervals with merged attributes and the minimum
// confidence.
func intersect(l, r []Result) []Result {
	var out []Result
	for _, a := range l {
		for _, b := range r {
			if !a.Interval.Intersects(b.Interval) {
				continue
			}
			iv := a.Interval
			if b.Interval.Start > iv.Start {
				iv.Start = b.Interval.Start
			}
			if b.Interval.End < iv.End {
				iv.End = b.Interval.End
			}
			conf := a.Confidence
			if b.Confidence < conf {
				conf = b.Confidence
			}
			attrs := map[string]string{}
			for k, v := range a.Attrs {
				attrs[k] = v
			}
			for k, v := range b.Attrs {
				attrs[k] = v
			}
			out = append(out, Result{Interval: iv, Confidence: conf, Attrs: attrs})
		}
	}
	return out
}

// temporalSemijoin keeps left segments standing in the relation to at
// least one right segment.
func temporalSemijoin(l, r []Result, rel string, gap float64) ([]Result, error) {
	var rels []rules.Relation
	switch rel {
	case "before":
		rels = []rules.Relation{rules.Before, rules.Meets}
	case "after":
		rels = []rules.Relation{rules.After, rules.MetBy}
	case "during":
		rels = []rules.Relation{rules.During, rules.Starts, rules.Finishes, rules.Equals}
	case "overlaps":
		rels = []rules.Relation{rules.Overlaps, rules.OverlappedBy, rules.During,
			rules.Contains, rules.Starts, rules.StartedBy, rules.Finishes,
			rules.FinishedBy, rules.Equals}
	case "meets":
		rels = []rules.Relation{rules.Meets, rules.MetBy}
	case "within":
		// handled separately below
	default:
		return nil, fmt.Errorf("query: unknown temporal relation %q", rel)
	}
	var out []Result
	for _, a := range l {
		matched := false
		for _, b := range r {
			if rel == "within" {
				if gapBetween(a.Interval, b.Interval) <= gap {
					matched = true
				}
			} else {
				for _, rr := range rels {
					if rules.Holds(rr, a.Interval, b.Interval) {
						// Respect the gap for before/after if set.
						matched = true
						break
					}
				}
			}
			if matched {
				break
			}
		}
		if matched {
			out = append(out, a)
		}
	}
	return out, nil
}

// gapBetween returns 0 for intersecting intervals, else the distance
// between their closest endpoints.
func gapBetween(a, b rules.Interval) float64 {
	if a.Intersects(b) {
		return 0
	}
	if a.End <= b.Start {
		return b.Start - a.End
	}
	return a.Start - b.End
}

// complement returns the gaps the given segments leave within
// [0, duration).
func complement(res []Result, duration float64) []Result {
	sorted := append([]Result(nil), res...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Interval.Start < sorted[j].Interval.Start })
	var out []Result
	cursor := 0.0
	for _, r := range sorted {
		if r.Interval.Start > cursor {
			out = append(out, Result{Interval: cobra.Interval{Start: cursor, End: r.Interval.Start}, Confidence: 1})
		}
		if r.Interval.End > cursor {
			cursor = r.Interval.End
		}
	}
	if cursor < duration {
		out = append(out, Result{Interval: cobra.Interval{Start: cursor, End: duration}, Confidence: 1})
	}
	return out
}
