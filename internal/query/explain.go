package query

import (
	"fmt"
	"strings"

	"cobra/internal/cobra"
	"cobra/internal/monet"
)

// Explain parses a COQL statement and describes its evaluation without
// running it: the statement's Canonical form, then one line per
// condition node in the pre-order Incremental.evalCond walks, indented
// two spaces a level. A leaf prints its canonical text, an operator its
// name (and, not, or, or the temporal relation). A FEATURE leaf adds
// the access path the kernel's next select over its BAT would take.
//
// Explain runs no extractor, builds no index and moves no access-path
// counter. An unknown video fails with the error execution returns.
func (e *Engine) Explain(src string) ([]string, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return e.explain(q)
}

// ExplainAnalyze is Explain followed by a traced execution of the
// statement: the Explain lines, "# executed: N segments", then the
// rendered span tree, whose physical-level spans carry the access paths
// and fused verdicts the kernel actually took.
func (e *Engine) ExplainAnalyze(src string) ([]string, error) {
	lines, err := e.Explain(src)
	if err != nil {
		return nil, err
	}
	res, span, err := e.RunTraced(src)
	if err != nil {
		return nil, err
	}
	lines = append(lines, fmt.Sprintf("# executed: %d segments", len(res)))
	return append(lines, strings.Split(strings.TrimRight(span.Render(), "\n"), "\n")...), nil
}

func (e *Engine) explain(q *Query) ([]string, error) {
	cat := e.pre.Catalog()
	if _, err := cat.Video(q.Video); err != nil {
		return nil, err
	}
	lines := []string{q.Canonical()}
	var walk func(c Cond, indent string)
	walk = func(c Cond, indent string) {
		var line string
		var operands []Cond
		switch n := c.(type) {
		case *NotCond:
			line, operands = "not", []Cond{n.X}
		case *AndCond:
			line, operands = "and", []Cond{n.L, n.R}
		case *OrCond:
			line, operands = "or", []Cond{n.L, n.R}
		case *TemporalCond:
			line, operands = n.Rel, []Cond{n.L, n.R}
			if n.Rel == "within" {
				line += " " + canonFloat(n.Gap) + " of"
			}
		default:
			var b strings.Builder
			canonCond(&b, c)
			line = b.String()
			if f, ok := c.(*FeatureCond); ok {
				line += "  # access " + featureAccess(cat.Store(), q.Video, f)
			}
		}
		lines = append(lines, indent+line)
		for _, o := range operands {
			walk(o, indent+"  ")
		}
	}
	if q.Where != nil {
		walk(q.Where, "")
	}
	return lines, nil
}

// featureAccess is Store.PlanAccess's verdict for the range select a
// one-shot FEATURE leaf runs (featureRuns from row 0). PlanAccess fails
// only when no BAT is stored under the name: the preprocessor has not
// extracted the feature yet.
func featureAccess(store *monet.Store, video string, n *FeatureCond) string {
	lo, hi := featureBounds(n.Op, n.Val)
	info, err := store.PlanAccess(cobra.FeatureBATName(video, n.Name), monet.NewFloat(lo), monet.NewFloat(hi))
	if err != nil {
		return "not materialized"
	}
	return info.String()
}
