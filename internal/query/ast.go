package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Query is a parsed COQL statement.
type Query struct {
	// Target is "segments" or "events".
	Target string
	// Video is the FROM source.
	Video string
	// Where is the root condition; nil selects everything.
	Where Cond
	// OrderBy is "", "start" or "confidence".
	OrderBy string
	// Desc reverses the ordering.
	Desc bool
	// Limit caps the result count; 0 = unlimited.
	Limit int
	// Window restricts results to segments overlapping the trailing
	// LAST n seconds of the video (0 = whole video). Over a live
	// stream the window slides with the duration watermark, making the
	// query a standing "what just happened" monitor.
	Window float64
}

// Cond is a condition node; every node evaluates to a set of segments.
type Cond interface{ cond() }

// EventCond selects events of a type, optionally constrained by
// attribute equalities and a minimum confidence.
type EventCond struct {
	Type  string
	Attrs map[string]string
}

// TextCond selects caption segments containing a word.
type TextCond struct {
	Word string
}

// ObjectCond selects the appearance intervals of an object-layer
// entity ("the video sequences showing the car of Michael
// Schumacher").
type ObjectCond struct {
	Name string
}

// FeatureCond selects runs where a feature satisfies a comparison.
type FeatureCond struct {
	Name string
	Op   string // > >= < <= =
	Val  float64
}

// NotCond complements a segment set within the video's duration.
type NotCond struct{ X Cond }

// AndCond intersects two segment sets temporally.
type AndCond struct{ L, R Cond }

// OrCond unions two segment sets.
type OrCond struct{ L, R Cond }

// TemporalCond keeps left segments standing in a relation to some
// right segment.
type TemporalCond struct {
	L, R Cond
	// Rel is one of before, after, during, overlaps, meets, within.
	Rel string
	// Gap bounds WITHIN n OF.
	Gap float64
}

func (*EventCond) cond()    {}
func (*ObjectCond) cond()   {}
func (*NotCond) cond()      {}
func (*TextCond) cond()     {}
func (*FeatureCond) cond()  {}
func (*AndCond) cond()      {}
func (*OrCond) cond()       {}
func (*TemporalCond) cond() {}

// parser is a recursive-descent COQL parser.
type parser struct {
	toks []token
	i    int
}

// Parse parses a COQL statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	if !p.acceptKeyword("select") && !p.acceptKeyword("retrieve") {
		return nil, p.errf("expected SELECT or RETRIEVE")
	}
	switch {
	case p.acceptKeyword("segments"):
		q.Target = "segments"
	case p.acceptKeyword("events"):
		q.Target = "events"
	default:
		return nil, p.errf("expected SEGMENTS or EVENTS")
	}
	if !p.acceptKeyword("from") {
		return nil, p.errf("expected FROM")
	}
	t := p.cur()
	if t.kind != tIdent && t.kind != tString {
		return nil, p.errf("expected video name")
	}
	q.Video = t.text
	p.i++
	if p.acceptKeyword("where") {
		c, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		q.Where = c
	}
	if p.acceptKeyword("last") {
		t := p.cur()
		if t.kind != tNumber {
			return nil, p.errf("expected seconds after LAST")
		}
		n, err := strconv.ParseFloat(t.text, 64)
		if err != nil || n <= 0 {
			return nil, p.errf("bad LAST window %q", t.text)
		}
		p.i++
		p.acceptKeyword("s") // optional unit
		q.Window = n
	}
	if p.acceptKeyword("order") {
		if !p.acceptKeyword("by") {
			return nil, p.errf("expected BY after ORDER")
		}
		switch {
		case p.acceptKeyword("confidence"):
			q.OrderBy = "confidence"
		case p.acceptKeyword("start"):
			q.OrderBy = "start"
		default:
			return nil, p.errf("expected CONFIDENCE or START after ORDER BY")
		}
		if p.acceptKeyword("desc") {
			q.Desc = true
		} else {
			p.acceptKeyword("asc")
		}
	}
	if p.acceptKeyword("limit") {
		t := p.cur()
		if t.kind != tNumber {
			return nil, p.errf("expected count after LIMIT")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		p.i++
		q.Limit = n
	}
	if p.cur().kind != tEOF {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return q, nil
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) acceptKeyword(kw string) bool {
	if p.cur().isKeyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("query: %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) orExpr() (Cond, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &OrCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Cond, error) {
	l, err := p.temporal()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		r, err := p.temporal()
		if err != nil {
			return nil, err
		}
		l = &AndCond{L: l, R: r}
	}
	return l, nil
}

func (p *parser) temporal() (Cond, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptKeyword("before"), p.acceptKeyword("after"),
			p.acceptKeyword("during"), p.acceptKeyword("overlaps"),
			p.acceptKeyword("meets"):
			rel := strings.ToLower(p.toks[p.i-1].text)
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &TemporalCond{L: l, R: r, Rel: rel}
		case p.acceptKeyword("within"):
			t := p.cur()
			if t.kind != tNumber {
				return nil, p.errf("expected gap after WITHIN")
			}
			gap, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad gap %q", t.text)
			}
			p.i++
			p.acceptKeyword("s") // optional unit
			if !p.acceptKeyword("of") {
				return nil, p.errf("expected OF after WITHIN gap")
			}
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			l = &TemporalCond{L: l, R: r, Rel: "within", Gap: gap}
		default:
			return l, nil
		}
	}
}

func (p *parser) primary() (Cond, error) {
	switch {
	case p.acceptKeyword("not"):
		x, err := p.primary()
		if err != nil {
			return nil, err
		}
		return &NotCond{X: x}, nil
	case p.acceptKeyword("event"):
		return p.eventCond()
	case p.acceptKeyword("object"):
		if p.cur().text != "(" {
			return nil, p.errf("expected ( after OBJECT")
		}
		p.i++
		t := p.cur()
		if t.kind != tString {
			return nil, p.errf("expected object name string")
		}
		p.i++
		if p.cur().text != ")" {
			return nil, p.errf("expected ) after object name")
		}
		p.i++
		return &ObjectCond{Name: strings.ToUpper(t.text)}, nil
	case p.acceptKeyword("text"):
		if !p.acceptKeyword("contains") {
			return nil, p.errf("expected CONTAINS after TEXT")
		}
		t := p.cur()
		if t.kind != tString {
			return nil, p.errf("expected word string")
		}
		p.i++
		return &TextCond{Word: strings.ToUpper(t.text)}, nil
	case p.acceptKeyword("feature"):
		return p.featureCond()
	case p.cur().kind == tPunct && p.cur().text == "(":
		p.i++
		c, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().text != ")" {
			return nil, p.errf("expected )")
		}
		p.i++
		return c, nil
	}
	return nil, p.errf("expected EVENT, TEXT, FEATURE or (")
}

func (p *parser) eventCond() (Cond, error) {
	if p.cur().text != "(" {
		return nil, p.errf("expected ( after EVENT")
	}
	p.i++
	t := p.cur()
	if t.kind != tString {
		return nil, p.errf("expected event type string")
	}
	ec := &EventCond{Type: t.text}
	p.i++
	for p.cur().text == "," {
		p.i++
		key := p.cur()
		if key.kind != tIdent {
			return nil, p.errf("expected attribute name")
		}
		p.i++
		if p.cur().text != "=" {
			return nil, p.errf("expected = after attribute name")
		}
		p.i++
		val := p.cur()
		if val.kind != tString {
			return nil, p.errf("expected attribute value string")
		}
		p.i++
		if ec.Attrs == nil {
			ec.Attrs = map[string]string{}
		}
		ec.Attrs[lowerASCII(key.text)] = val.text
	}
	if p.cur().text != ")" {
		return nil, p.errf("expected ) after EVENT arguments")
	}
	p.i++
	return ec, nil
}

// lowerASCII folds the ASCII letters of an attribute name. A Unicode
// fold could turn an ident's bytes into ones the lexer does not read as
// an ident, and the canonical form would no longer parse.
func lowerASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func (p *parser) featureCond() (Cond, error) {
	if p.cur().text != "(" {
		return nil, p.errf("expected ( after FEATURE")
	}
	p.i++
	t := p.cur()
	if t.kind != tString {
		return nil, p.errf("expected feature name string")
	}
	fc := &FeatureCond{Name: t.text}
	p.i++
	if p.cur().text != ")" {
		return nil, p.errf("expected ) after feature name")
	}
	p.i++
	op := p.cur()
	if op.kind != tOp && !(op.kind == tPunct && op.text == "=") {
		return nil, p.errf("expected comparison after FEATURE(...)")
	}
	fc.Op = op.text
	p.i++
	num := p.cur()
	if num.kind != tNumber {
		return nil, p.errf("expected number after comparison")
	}
	v, err := strconv.ParseFloat(num.text, 64)
	if err != nil {
		return nil, p.errf("bad number %q", num.text)
	}
	fc.Val = v
	p.i++
	return fc, nil
}
