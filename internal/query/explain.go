package query

import (
	"fmt"
	"strconv"
	"strings"

	"cobra/internal/cobra"
	"cobra/internal/milcheck"
	"cobra/internal/monet"
	"cobra/internal/obs"
)

// EXPLAIN: translate a COQL condition tree into the MIL access plan
// the physical layer would run, then statically verify it with
// milcheck against the live catalog store. The plan works in the
// kernel's late-materialization style: each condition node produces a
// qualifying OID set ([oid,void]), combinators operate on OID sets,
// and the segment columns are gathered once for the root set.
// Logical-layer work the kernel cannot express (attribute decoding,
// run extraction, Allen relations) is annotated in comments.

// Explanation is the result of Engine.Explain.
type Explanation struct {
	// Query is the parsed COQL statement.
	Query *Query
	// Plan is the emitted MIL access plan.
	Plan string
	// Diags are milcheck's findings over the plan (sorted, errors
	// first at equal positions).
	Diags []milcheck.Diagnostic
}

// OK reports whether the plan passed verification without errors.
func (e *Explanation) OK() bool { return !milcheck.HasErrors(e.Diags) }

// String renders the explanation for the shell.
func (e *Explanation) String() string {
	var b strings.Builder
	b.WriteString(e.Plan)
	if len(e.Diags) == 0 {
		b.WriteString("# milcheck: plan OK\n")
		return b.String()
	}
	for _, d := range e.Diags {
		fmt.Fprintf(&b, "# milcheck: %s\n", d)
	}
	return b.String()
}

// Explain parses a COQL statement and emits its verified MIL access
// plan. Parse failures are returned as err; plan verification findings
// are reported in the Explanation.
func (e *Engine) Explain(src string) (*Explanation, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.explainQuery(q), nil
}

// explainQuery emits and verifies the plan for an already-parsed
// query: the compilation step the prepared-plan cache memoizes.
func (e *Engine) explainQuery(q *Query) *Explanation {
	pl := &planner{video: q.Video, store: e.pre.Catalog().Store()}
	if q.Where == nil {
		pl.printf("# no WHERE clause: the whole video qualifies")
		pl.printf("RETURN bat(%s).find(%s);", milStr("cobra/videos"), milStr(q.Video))
	} else {
		root := pl.emit(q.Where)
		ev := func(col string) string { return milStr("cobra/event/" + q.Video + "/" + col) }
		pl.printf("# materialize the segment columns of the qualifying OID set")
		pl.printf("VAR res_start := bat(%s).semijoin(%s);", ev("start"), root)
		pl.printf("VAR res_end := bat(%s).semijoin(%s);", ev("end"), root)
		pl.printf("VAR res_conf := bat(%s).semijoin(%s);", ev("conf"), root)
		pl.printf("print(res_end.max);")
		pl.printf("print(res_conf.avg);")
		pl.printf("RETURN res_start;")
	}
	plan := pl.b.String()
	diags, err := milcheck.CheckSource(plan, &milcheck.Options{
		Funcs:      milcheck.ExtensionSigs(),
		ResolveBAT: milcheck.StoreResolver(e.pre.Catalog().Store()),
	})
	if err != nil {
		// The emitter produced unparseable MIL: surface it as a
		// diagnostic rather than failing the EXPLAIN.
		diags = []milcheck.Diagnostic{{Line: 1, Col: 1, Severity: milcheck.Error,
			Code: "emit-parse", Msg: err.Error()}}
	}
	return &Explanation{Query: q, Plan: plan, Diags: diags}
}

// ExplainAnalyze emits the verified plan, then actually executes the
// statement: the returned trace's physical-level spans carry the
// access paths the kernel really took (zone-map prune counts,
// dictionary sizes), where the static plan only predicts them.
func (e *Engine) ExplainAnalyze(src string) (*Explanation, []Result, *obs.Span, error) {
	ex, err := e.Explain(src)
	if err != nil {
		return nil, nil, nil, err
	}
	res, span, err := e.RunTraced(src)
	if err != nil {
		return nil, nil, nil, err
	}
	return ex, res, span, nil
}

// planner emits MIL statements with fresh per-node variable names.
type planner struct {
	video string
	store *monet.Store
	b     strings.Builder
	n     int
}

func (p *planner) printf(format string, args ...any) {
	fmt.Fprintf(&p.b, format+"\n", args...)
}

// milStr quotes a string as a MIL literal (catalog names contain no
// control bytes).
func milStr(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)
	return `"` + r.Replace(s) + `"`
}

func (p *planner) fresh() string {
	p.n++
	return "s" + strconv.Itoa(p.n)
}

// emit compiles one condition node, returning the name of the
// [oid,void] variable holding its qualifying event OIDs.
func (p *planner) emit(c Cond) string {
	name := p.fresh()
	typeScan := milStr("cobra/event/" + p.video + "/type")
	switch n := c.(type) {
	case *EventCond:
		p.printf("# %s: event %q", name, n.Type)
		p.printf("VAR %s := bat(%s).uselect(%s);", name, typeScan, milStr(n.Type))
		if len(n.Attrs) > 0 {
			p.printf("# %s: attribute match decodes %s at the logical layer",
				name, milStr("cobra/event/"+p.video+"/attrs"))
		}

	case *TextCond:
		p.printf("# %s: text %q over caption events, word matched at the logical layer", name, n.Word)
		p.printf("VAR %s := bat(%s).uselect(%s);", name, typeScan, milStr(CaptionEventType))

	case *ObjectCond:
		p.printf("# %s: object %q, appearance list decodes at the logical layer", name, n.Name)
		p.printf("print(bat(%s).find(%s));", milStr("cobra/object/"+p.video+"/appearances"), milStr(n.Name))
		p.printf("VAR %s := new(oid, void);", name)

	case *FeatureCond:
		p.printf("# %s: feature %s %s %v, threshold runs extracted at the logical layer", name, n.Name, n.Op, n.Val)
		p.accessPath(name, n)
		p.printf("print(threshold(bat(%s), %s).count);",
			milStr("cobra/feature/"+p.video+"/"+n.Name), formatFloat(n.Val))
		p.printf("VAR %s := new(oid, void);", name)

	case *NotCond:
		x := p.emit(n.X)
		p.printf("# %s: NOT %s, complement within the video duration at the logical layer", name, x)
		p.printf("VAR %s := %s;", name, x)

	case *AndCond:
		l := p.emit(n.L)
		r := p.emit(n.R)
		p.printf("# %s: %s AND %s (interval intersection; OID semijoin approximation)", name, l, r)
		p.printf("VAR %s := %s.semijoin(%s);", name, l, r)

	case *OrCond:
		l := p.emit(n.L)
		r := p.emit(n.R)
		p.printf("# %s: %s OR %s", name, l, r)
		p.printf("VAR %s := %s.kunion(%s);", name, l, r)

	case *TemporalCond:
		l := p.emit(n.L)
		r := p.emit(n.R)
		p.printf("# %s: %s %s %s (Allen relations at the logical layer)", name, l, strings.ToUpper(n.Rel), r)
		p.printf("VAR %s := %s.semijoin(%s);", name, l, r)

	default:
		p.printf("# %s: unknown condition %T", name, c)
		p.printf("VAR %s := new(oid, void);", name)
	}
	return name
}

// accessPath annotates a feature condition with the access path the
// kernel's access-path gate would choose for it right now, plus the fused
// pipeline stages the select→runs execution would take (or the
// fallback reason pinning it to operator-at-a-time). Both probes are
// side-effect-free, so EXPLAIN never builds indexes or moves the
// column through the gate's graduation counters.
func (p *planner) accessPath(name string, n *FeatureCond) {
	if p.store == nil {
		return
	}
	lo, hi, ok := featureBounds(n.Op, n.Val)
	if !ok {
		p.printf("# %s: access path: scan (no range form, legacy evaluation)", name)
		return
	}
	bat := cobra.FeatureBATName(p.video, n.Name)
	info, err := p.store.PlanAccess(bat, monet.NewFloat(lo), monet.NewFloat(hi))
	if err != nil {
		return // feature not materialized yet: nothing to plan against
	}
	fused := "fused=select→runs"
	if d := p.store.FusedDecision(bat, bat, monet.NewFloat(lo), monet.NewFloat(hi), "count"); d != "fused" {
		fused = "fused=no" + strings.TrimPrefix(d, "fallback")
	}
	p.printf("# %s: access path: %s %s", name, info, fused)
}

func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', -1, 64)
	if !strings.Contains(s, ".") {
		s += ".0"
	}
	return s
}
