package query

import (
	"fmt"
	"strings"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/obs"
)

// explainLines runs EXPLAIN and fails the test on an error.
func explainLines(t *testing.T, e *Engine, src string) []string {
	t.Helper()
	lines, err := e.Explain(src)
	if err != nil {
		t.Fatalf("Explain(%q): %v", src, err)
	}
	return lines
}

func wantLines(t *testing.T, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("EXPLAIN =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestExplainEventQueryVerifies(t *testing.T) {
	e := testEngine(t)
	src := `SELECT SEGMENTS FROM v WHERE EVENT('pitstop', driver='BARRICHELLO')`
	wantLines(t, explainLines(t, e, src),
		`select segments from v where event("pitstop", driver="barrichello")`,
		`event("pitstop", driver="barrichello")`)
}

func TestExplainCompositeQueryVerifies(t *testing.T) {
	e := testEngine(t)
	lines := explainLines(t, e, `SELECT SEGMENTS FROM v WHERE
		(EVENT('highlight') AND TEXT CONTAINS 'SCHUMACHER')
		OR FEATURE('dust') >= 0.5`)
	wantLines(t, lines,
		`select segments from v where ((event("highlight")) and (text contains "SCHUMACHER")) or (feature("dust") >= 0.5)`,
		`or`,
		`  and`,
		`    event("highlight")`,
		`    text contains "SCHUMACHER"`,
		// 3 000 samples sit under the kernel's parallel threshold.
		`  feature("dust") >= 0.5  # access path=scan rows=3000 matched=0`)
	// The first line is COQL a user can paste back.
	if _, err := e.Explain(lines[0]); err != nil {
		t.Fatalf("canonical line does not re-explain: %v", err)
	}
}

func TestExplainTemporalAndNot(t *testing.T) {
	e := testEngine(t)
	lines := explainLines(t, e, `SELECT SEGMENTS FROM v WHERE NOT EVENT('flyout')
		AND EVENT('highlight') WITHIN 10 S OF EVENT('pitstop') BEFORE OBJECT('car')
		LAST 60 ORDER BY START DESC LIMIT 3`)
	wantLines(t, lines,
		`select segments from v where (not (event("flyout"))) and (((event("highlight")) within 10 of (event("pitstop"))) before (object("CAR"))) last 60 order by start desc limit 3`,
		`and`,
		`  not`,
		`    event("flyout")`,
		`  before`,
		`    within 10 of`,
		`      event("highlight")`,
		`      event("pitstop")`,
		`    object("CAR")`)
}

func TestExplainNoWhere(t *testing.T) {
	e := testEngine(t)
	wantLines(t, explainLines(t, e, `RETRIEVE EVENTS FROM v`), `select events from v`)
}

func TestExplainUnknownVideoDiagnoses(t *testing.T) {
	// EXPLAIN of a video absent from the catalog fails with the error
	// execution returns.
	e := testEngine(t)
	src := `SELECT SEGMENTS FROM nosuch WHERE EVENT('pitstop')`
	_, err := e.Explain(src)
	_, runErr := e.Run(src)
	if err == nil || runErr == nil || err.Error() != runErr.Error() {
		t.Fatalf("Explain err = %v, Run err = %v", err, runErr)
	}
}

func TestExplainParseError(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Explain(`SELECT SEGMENTS FROM`); err == nil {
		t.Fatal("expected a parse error")
	}
	if _, err := e.ExplainAnalyze(`SELECT SEGMENTS FROM`); err == nil {
		t.Fatal("expected a parse error")
	}
}

// clusteredSpeed is a feature long enough for the zone-map road: 0 in
// its first half, 1 in its second.
func clusteredSpeed(t *testing.T) *Engine {
	t.Helper()
	vals := make([]float64, 4*monet.MorselSize)
	for i := len(vals) / 2; i < len(vals); i++ {
		vals[i] = 1
	}
	return bigFeatureEngine(t, vals)
}

func TestExplainFeatureAccessPaths(t *testing.T) {
	e := clusteredSpeed(t)
	lines := explainLines(t, e, `SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 0.5 OR FEATURE('rpm') > 0.5`)
	wantLines(t, lines,
		`select segments from race where (feature("speed") > 0.5) or (feature("rpm") > 0.5)`,
		`or`,
		// A cold column: the zone map is not built yet, so no counts.
		`  feature("speed") > 0.5  # access path=zonemap rows=65536 matched=0`,
		`  feature("rpm") > 0.5  # access not materialized`)
	if _, err := e.Run(`SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 0.5`); err != nil {
		t.Fatal(err)
	}
	// Warm: the zone map the select built prunes the first half.
	lines = explainLines(t, e, `SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 0.5`)
	if want := `feature("speed") > 0.5  # access path=zonemap rows=65536 matched=0 morsels=4 pruned=2 zones=64 scanned=0 covered=32`; lines[1] != want {
		t.Fatalf("warm leaf = %q, want %q", lines[1], want)
	}
	// An operator with no range form selects the empty range, which
	// the zone map prunes whole. The parser admits none, so the tree is
	// built directly.
	q := &Query{Target: "segments", Video: "race", Where: &FeatureCond{Name: "speed", Op: "!=", Val: 1}}
	lines, err := e.explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := `feature("speed") != 1  # access path=zonemap rows=65536 matched=0 morsels=4 pruned=4 zones=64 scanned=0 covered=0`; lines[1] != want {
		t.Fatalf("leaf = %q, want %q", lines[1], want)
	}
}

func TestExplainRunsNoExtractor(t *testing.T) {
	cat := cobra.NewCatalog(monet.NewStore())
	cat.PutVideo(cobra.Video{Name: "v", Duration: 100, FPS: 10})
	pre := cobra.NewPreprocessor(cat)
	calls := 0
	pre.Register(cobra.ExtractorFunc{
		EngineName: "dust-meter",
		Outputs:    []cobra.Requirement{{Kind: cobra.NeedFeature, Name: "dust"}},
		CostVal:    1, QualityVal: 0.9,
		Fn: func(cat *cobra.Catalog, video string) error {
			calls++
			return cat.PutFeature(cobra.Feature{Video: video, Name: "dust", SampleRate: 10, Values: make([]float64, 1000)})
		},
	})
	e := NewEngine(pre)
	src := `SELECT SEGMENTS FROM v WHERE FEATURE('dust') > 0.5`
	lines := explainLines(t, e, src)
	if calls != 0 || !strings.HasSuffix(lines[1], "# access not materialized") {
		t.Fatalf("EXPLAIN ran %d extractions: %v", calls, lines)
	}
	// ANALYZE prints the tree as it stood, then executes.
	lines, err := e.ExplainAnalyze(src)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !strings.HasSuffix(lines[1], "# access not materialized") ||
		lines[2] != "# executed: 0 segments" || !strings.HasPrefix(lines[3], "coql.query") {
		t.Fatalf("EXPLAIN ANALYZE (%d extractions):\n%s", calls, strings.Join(lines, "\n"))
	}
	if lines := explainLines(t, e, src); !strings.HasSuffix(lines[1], "# access path=scan rows=1000 matched=0") {
		t.Fatalf("after extraction: %v", lines)
	}
}

// TestExplainHasNoSideEffects: EXPLAIN plans the leaves' selects but
// builds nothing and counts nothing — the column's index state, the
// store epochs and the access-path counters read the same after it.
func TestExplainHasNoSideEffects(t *testing.T) {
	const bat = "cobra/feature/race/speed"
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			e := clusteredSpeed(t)
			store := e.Catalog().Store()
			if warm {
				if _, err := e.Run(`SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 0.5`); err != nil {
					t.Fatal(err)
				}
			}
			state := func() string {
				ii, err := store.IndexInfo(bat)
				if err != nil {
					t.Fatal(err)
				}
				s := fmt.Sprint(store.Epochs([]string{bat, cobra.VideosBATName()}))
				for i := 0; i < ii.Len(); i++ {
					s += " " + ii.Head(i).Str() + "=" + ii.Tail(i).Str()
				}
				for _, c := range []string{"monet.index.selects", "monet.index.zonemap.builds",
					"monet.index.zonemap.morsels_scanned", "monet.index.zonemap.morsels_pruned",
					"monet.index.dict.builds"} {
					s += fmt.Sprintf(" %s=%d", c, obs.C(c).Value())
				}
				return s
			}
			before := state()
			for i := 0; i < 2; i++ {
				explainLines(t, e, `SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 0.5 AND NOT FEATURE('speed') < 0.2`)
			}
			if after := state(); after != before {
				t.Fatalf("EXPLAIN moved state:\nbefore %s\nafter  %s", before, after)
			}
		})
	}
}
