package query

import (
	"sort"
	"strconv"
	"strings"

	"cobra/internal/cobra"
)

// Canonical renders a parsed query to a normalized COQL string: the
// cache key of the serving layer's result cache, and the text EXPLAIN
// prints. Two statements that differ only in spelling — whitespace,
// keyword case, attribute order, attribute-value case (matching is
// case-insensitive), float rendering ("0.50" vs ".5") — canonicalize
// identically and share one cache entry. Structurally different
// queries never collide because the rendering is an injective encoding
// of the AST. For every parsed query the rendering is itself COQL that
// parses back to the same canonical form.
//
// Canonicalization deliberately does NOT reorder AND/OR operands:
// evaluation is order-sensitive in its trace and (for OR) in result
// ordering, so commuted operands are distinct plans and distinct
// cache entries. Equivalence beyond spelling belongs to a rewriter,
// not the cache key.
func (q *Query) Canonical() string {
	var b strings.Builder
	b.WriteString("select ")
	b.WriteString(q.Target)
	b.WriteString(" from ")
	if isIdent(q.Video) {
		b.WriteString(q.Video)
	} else {
		canonLit(&b, q.Video) // FROM also takes a string literal
	}
	if q.Where != nil {
		b.WriteString(" where ")
		canonCond(&b, q.Where)
	}
	if q.Window > 0 {
		b.WriteString(" last ")
		b.WriteString(canonFloat(q.Window))
	}
	if q.OrderBy != "" {
		b.WriteString(" order by ")
		b.WriteString(q.OrderBy)
		if q.Desc {
			b.WriteString(" desc")
		}
	}
	if q.Limit > 0 {
		b.WriteString(" limit ")
		b.WriteString(strconv.Itoa(q.Limit))
	}
	return b.String()
}

// canonCond renders one condition node. Parentheses are emitted around
// every composite operand, so precedence never depends on the reader.
func canonCond(b *strings.Builder, c Cond) {
	switch n := c.(type) {
	case *EventCond:
		b.WriteString("event(")
		canonLit(b, n.Type)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(", ")
			b.WriteString(k)
			b.WriteString("=")
			// Attribute matching is case-insensitive (attrsMatch uses
			// EqualFold), so values fold to one spelling here.
			canonLit(b, strings.ToLower(n.Attrs[k]))
		}
		b.WriteString(")")
	case *TextCond:
		b.WriteString("text contains ")
		canonLit(b, n.Word)
	case *ObjectCond:
		b.WriteString("object(")
		canonLit(b, n.Name)
		b.WriteString(")")
	case *FeatureCond:
		b.WriteString("feature(")
		canonLit(b, n.Name)
		b.WriteString(") ")
		b.WriteString(n.Op)
		b.WriteString(" ")
		b.WriteString(canonFloat(n.Val))
	case *NotCond:
		b.WriteString("not (")
		canonCond(b, n.X)
		b.WriteString(")")
	case *AndCond:
		b.WriteString("(")
		canonCond(b, n.L)
		b.WriteString(") and (")
		canonCond(b, n.R)
		b.WriteString(")")
	case *OrCond:
		b.WriteString("(")
		canonCond(b, n.L)
		b.WriteString(") or (")
		canonCond(b, n.R)
		b.WriteString(")")
	case *TemporalCond:
		b.WriteString("(")
		canonCond(b, n.L)
		b.WriteString(") ")
		b.WriteString(n.Rel)
		if n.Rel == "within" {
			b.WriteString(" ")
			b.WriteString(canonFloat(n.Gap))
			b.WriteString(" of")
		}
		b.WriteString(" (")
		canonCond(b, n.R)
		b.WriteString(")")
	}
}

// canonLit renders a string literal the way the lexer reads it back:
// between double quotes unless it holds one, else between single
// quotes. The lexer has no escapes, so a literal holding both quote
// characters cannot come from Parse; it renders as a backslash and its
// Go-quoted form. The first byte of every literal thus names its form
// and each form is self-delimiting, which keeps the encoding injective
// although that last form does not parse.
func canonLit(b *strings.Builder, s string) {
	switch {
	case !strings.Contains(s, `"`):
		b.WriteByte('"')
		b.WriteString(s)
		b.WriteByte('"')
	case !strings.Contains(s, "'"):
		b.WriteByte('\'')
		b.WriteString(s)
		b.WriteByte('\'')
	default:
		b.WriteByte('\\')
		b.WriteString(strconv.Quote(s))
	}
}

// canonFloat renders a float the shortest way that round-trips, so
// "0.50", ".5" and "0.5" spell one key. No exponent: the lexer reads a
// number as digits and dots only.
func canonFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// DepNamesOf returns the kernel BAT names a query reads, in
// deterministic walk order: the query's dependency set. The epochs of
// these names are the query's freshness fingerprint — the result
// cache pairs Canonical() with qcache.Fingerprint over this set, and
// the subscription manager skips re-evaluation while none has
// advanced. Queries whose result depends on the video's duration — a
// trailing window, a NOT complement, or no WHERE clause at all —
// additionally depend on the raw-layer video table, whose epoch
// advances with every watermark move.
func DepNamesOf(q *Query) []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	needDuration := q.Window > 0 || q.Where == nil
	var walk func(Cond)
	walk = func(c Cond) {
		switch n := c.(type) {
		case *EventCond:
			// All event types share the video's decomposed event relation;
			// the "type" column's epoch covers every append.
			add(cobra.EventBATName(q.Video, "type"))
		case *TextCond:
			add(cobra.EventBATName(q.Video, "type"))
		case *ObjectCond:
			add(cobra.ObjectBATName(q.Video, "appearances"))
		case *FeatureCond:
			add(cobra.FeatureBATName(q.Video, n.Name))
		case *NotCond:
			needDuration = true
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
	if q.Where != nil {
		walk(q.Where)
	}
	if needDuration {
		add(cobra.VideosBATName())
	}
	return out
}
