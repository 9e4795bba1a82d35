package query

import (
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/monet"
)

func TestParseBasics(t *testing.T) {
	q, err := Parse(`SELECT SEGMENTS FROM german-gp WHERE EVENT('pitstop', driver='BARRICHELLO')`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Target != "segments" || q.Video != "german-gp" {
		t.Fatalf("query = %+v", q)
	}
	ec, ok := q.Where.(*EventCond)
	if !ok || ec.Type != "pitstop" || ec.Attrs["driver"] != "BARRICHELLO" {
		t.Fatalf("where = %#v", q.Where)
	}
}

func TestParseRetrieveAlias(t *testing.T) {
	q, err := Parse(`RETRIEVE EVENTS FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Target != "events" || q.Where != nil {
		t.Fatalf("query = %+v", q)
	}
}

func TestParseComposite(t *testing.T) {
	q, err := Parse(`select segments from v where
		(EVENT('highlight') AND TEXT CONTAINS 'SCHUMACHER')
		OR FEATURE('dust') >= 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := q.Where.(*OrCond)
	if !ok {
		t.Fatalf("root = %#v", q.Where)
	}
	if _, ok := or.L.(*AndCond); !ok {
		t.Fatalf("left = %#v", or.L)
	}
	fc, ok := or.R.(*FeatureCond)
	if !ok || fc.Op != ">=" || fc.Val != 0.5 {
		t.Fatalf("right = %#v", or.R)
	}
}

func TestParseTemporal(t *testing.T) {
	q, err := Parse(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') WITHIN 10 S OF EVENT('pitstop')`)
	if err != nil {
		t.Fatal(err)
	}
	tc, ok := q.Where.(*TemporalCond)
	if !ok || tc.Rel != "within" || tc.Gap != 10 {
		t.Fatalf("where = %#v", q.Where)
	}
	q, err = Parse(`SELECT SEGMENTS FROM v WHERE EVENT('start') BEFORE EVENT('flyout')`)
	if err != nil {
		t.Fatal(err)
	}
	if tc := q.Where.(*TemporalCond); tc.Rel != "before" {
		t.Fatalf("rel = %v", tc.Rel)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT SEGMENTS`,
		`SELECT SEGMENTS FROM`,
		`SELECT SEGMENTS FROM v WHERE`,
		`SELECT SEGMENTS FROM v WHERE EVENT(pitstop)`,
		`SELECT SEGMENTS FROM v WHERE EVENT('x'`,
		`SELECT SEGMENTS FROM v WHERE FEATURE('x') >`,
		`SELECT SEGMENTS FROM v WHERE TEXT 'X'`,
		`SELECT SEGMENTS FROM v WHERE EVENT('x') WITHIN OF EVENT('y')`,
		`SELECT SEGMENTS FROM v trailing`,
		`SELECT SEGMENTS FROM v WHERE EVENT('x') AND`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// The lexer slices string tokens out of the source and sizes its token
// slice from the source length: the text between the quotes must come
// through byte for byte, and a source denser in tokens than the estimate
// must still lex completely.
func TestLexStringsAndDenseSource(t *testing.T) {
	toks, err := lex(`'pit stop' "it's" '' 'say "x"'`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"pit stop", "it's", "", `say "x"`}
	if len(toks) != len(want)+1 || toks[len(want)].kind != tEOF {
		t.Fatalf("tokens = %+v", toks)
	}
	for i, w := range want {
		if toks[i].kind != tString || toks[i].text != w {
			t.Errorf("token %d = %+v, want string %q", i, toks[i], w)
		}
	}
	if _, err := lex(`EVENT('open`); err == nil {
		t.Error("unterminated string should fail")
	}
	dense := "((((((((((((((((((((((((((((((((,,,,,,,,,,,,,,,,"
	toks, err = lex(dense)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != len(dense)+1 {
		t.Fatalf("%d tokens from %d punctuation bytes", len(toks), len(dense))
	}
	for i := range dense {
		if toks[i].kind != tPunct || toks[i].text != dense[i:i+1] || toks[i].pos != i {
			t.Fatalf("token %d = %+v", i, toks[i])
		}
	}
}

// testEngine builds a populated catalog with a passthrough
// preprocessor.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	cat := cobra.NewCatalog(monet.NewStore())
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 300, FPS: 10}); err != nil {
		t.Fatal(err)
	}
	cat.PutEvents("v", []cobra.Event{
		{Type: "highlight", Interval: cobra.Interval{Start: 30, End: 45}, Confidence: 0.9},
		{Type: "highlight", Interval: cobra.Interval{Start: 100, End: 112}, Confidence: 0.8},
		{Type: "pitstop", Interval: cobra.Interval{Start: 104, End: 118}, Confidence: 1,
			Attrs: map[string]string{"driver": "BARRICHELLO"}},
		{Type: "pitstop", Interval: cobra.Interval{Start: 200, End: 214}, Confidence: 1,
			Attrs: map[string]string{"driver": "MONTOYA"}},
		{Type: "flyout", Interval: cobra.Interval{Start: 150, End: 160}, Confidence: 0.7},
		{Type: CaptionEventType, Interval: cobra.Interval{Start: 105, End: 110}, Confidence: 1,
			Attrs: map[string]string{"word": "BARRICHELLO"}},
		{Type: CaptionEventType, Interval: cobra.Interval{Start: 105, End: 110}, Confidence: 1,
			Attrs: map[string]string{"word": "PIT"}},
	})
	dust := make([]float64, 3000)
	for i := 1500; i < 1620; i++ {
		dust[i] = 0.8
	}
	cat.PutFeature(cobra.Feature{Video: "v", Name: "dust", SampleRate: 10, Values: dust})
	return NewEngine(cobra.NewPreprocessor(cat))
}

func TestExecuteEventQuery(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('pitstop', driver='BARRICHELLO')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Interval.Start != 104 {
		t.Fatalf("results = %v", res)
	}
}

func TestExecuteTextQuery(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE TEXT CONTAINS 'pit'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Interval.Start != 105 {
		t.Fatalf("results = %v", res)
	}
}

func TestExecuteAndIntersection(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') AND EVENT('pitstop')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	iv := res[0].Interval
	if iv.Start != 104 || iv.End != 112 {
		t.Fatalf("intersection = %v", iv)
	}
	if res[0].Attrs["driver"] != "BARRICHELLO" {
		t.Fatalf("attrs = %v", res[0].Attrs)
	}
	if res[0].Confidence != 0.8 {
		t.Fatalf("confidence = %v", res[0].Confidence)
	}
}

func TestExecuteOrUnion(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('flyout') OR EVENT('pitstop')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
}

func TestExecuteFeatureThreshold(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE FEATURE('dust') > 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Interval.Start != 150 || res[0].Interval.End != 162 {
		t.Fatalf("run = %v", res[0].Interval)
	}
}

func TestExecuteTemporalWithin(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') WITHIN 5 OF EVENT('flyout')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results = %v (flyout at 150 is 38 s after highlight end)", res)
	}
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('pitstop') WITHIN 35 OF EVENT('flyout')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Attrs["driver"] != "BARRICHELLO" {
		t.Fatalf("results = %v", res)
	}
}

func TestExecuteTemporalBefore(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') BEFORE EVENT('flyout')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %v", res)
	}
}

func TestExecuteNoWhere(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Interval.End != 300 {
		t.Fatalf("results = %v", res)
	}
}

func TestExecuteUnknownVideo(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Run(`SELECT SEGMENTS FROM nope WHERE EVENT('highlight')`); err == nil {
		t.Fatal("unknown video accepted")
	}
}

// TestDynamicExtraction verifies the preprocessor hook: querying an
// unmaterialized event type invokes the registered engine.
func TestDynamicExtraction(t *testing.T) {
	cat := cobra.NewCatalog(monet.NewStore())
	cat.PutVideo(cobra.Video{Name: "v", Duration: 100, FPS: 10})
	pre := cobra.NewPreprocessor(cat)
	calls := 0
	pre.Register(cobra.ExtractorFunc{
		EngineName: "dbn-highlights",
		Outputs:    []cobra.Requirement{{Kind: cobra.NeedEvents, Name: "highlight"}},
		CostVal:    5, QualityVal: 0.9,
		Fn: func(cat *cobra.Catalog, video string) error {
			calls++
			return cat.PutEvents(video, []cobra.Event{
				{Type: "highlight", Interval: cobra.Interval{Start: 10, End: 20}, Confidence: 0.9},
			})
		},
	})
	e := NewEngine(pre)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(res) != 1 {
		t.Fatalf("calls=%d results=%v", calls, res)
	}
	// Metadata is now materialized: second query does not re-extract.
	if _, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("re-extracted: calls=%d", calls)
	}
}

func TestRequirementsCollection(t *testing.T) {
	q, err := Parse(`SELECT SEGMENTS FROM v WHERE
		(EVENT('highlight') AND TEXT CONTAINS 'PIT') OR FEATURE('dust') > 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	reqs := requirements(q.Where)
	if len(reqs) != 3 {
		t.Fatalf("requirements = %v", reqs)
	}
}

func TestParseAndExecuteObjectQuery(t *testing.T) {
	e := testEngine(t)
	cat := e.pre.Catalog()
	cat.PutObject(cobra.Object{Video: "v", Name: "SCHUMACHER", Class: "driver",
		Appearances: []cobra.Interval{{Start: 20, End: 40}, {Start: 90, End: 120}}})
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE OBJECT('schumacher')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Attrs["object"] != "SCHUMACHER" {
		t.Fatalf("results = %v", res)
	}
	// Paper query: highlights showing the car of a driver.
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') AND OBJECT('SCHUMACHER')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("composed results = %v", res)
	}
	// An object that never appears gives an empty result, not an error.
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE OBJECT('HAKKINEN')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("absent object = %v", res)
	}
}

func TestExecuteNot(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE NOT EVENT('highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	// Highlights at [30,45] and [100,112] leave three gaps in [0,300).
	if len(res) != 3 {
		t.Fatalf("results = %v", res)
	}
	if res[0].Interval.Start != 0 || res[0].Interval.End != 30 {
		t.Fatalf("first gap = %v", res[0].Interval)
	}
	if res[2].Interval.End != 300 {
		t.Fatalf("last gap = %v", res[2].Interval)
	}
	// Composition: flyout outside highlights.
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('flyout') AND NOT EVENT('highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Interval.Start != 150 {
		t.Fatalf("composed = %v", res)
	}
}

func TestUserDefinedEventTypeQueries(t *testing.T) {
	e := testEngine(t)
	// No extractor provides "pit-highlight": the query still runs
	// against materialized events (none yet -> empty).
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('pit-highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("results = %v", res)
	}
	// After a user materializes derived events, the same query finds
	// them.
	e.pre.Catalog().PutEvents("v", []cobra.Event{
		{Type: "pit-highlight", Interval: cobra.Interval{Start: 100, End: 118}, Confidence: 0.8},
	})
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('pit-highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %v", res)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := testEngine(t)
	res, err := e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') ORDER BY CONFIDENCE DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Confidence != 0.9 {
		t.Fatalf("ordered = %v", res)
	}
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') ORDER BY CONFIDENCE DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Confidence != 0.9 {
		t.Fatalf("limited = %v", res)
	}
	res, err = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') ORDER BY START DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Interval.Start != 100 {
		t.Fatalf("start desc = %v", res)
	}
	// Default ordering stays by start ascending.
	res, _ = e.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight') LIMIT 1`)
	if res[0].Interval.Start != 30 {
		t.Fatalf("default order = %v", res)
	}
}

func TestOrderByParseErrors(t *testing.T) {
	bad := []string{
		`SELECT SEGMENTS FROM v ORDER CONFIDENCE`,
		`SELECT SEGMENTS FROM v ORDER BY BANANA`,
		`SELECT SEGMENTS FROM v LIMIT`,
		`SELECT SEGMENTS FROM v LIMIT 0`,
		`SELECT SEGMENTS FROM v LIMIT x`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}
