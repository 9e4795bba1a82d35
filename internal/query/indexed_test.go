package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/monet"
)

// bigFeatureEngine builds an engine over a feature series long enough
// to clear the kernel's index thresholds.
func bigFeatureEngine(t *testing.T, values []float64) *Engine {
	t.Helper()
	cat := cobra.NewCatalog(monet.NewStore())
	dur := float64(len(values)) / 10
	if err := cat.PutVideo(cobra.Video{Name: "race", Duration: dur, FPS: 25}); err != nil {
		t.Fatal(err)
	}
	if err := cat.PutFeature(cobra.Feature{Video: "race", Name: "speed", SampleRate: 10, Values: values}); err != nil {
		t.Fatal(err)
	}
	return NewEngine(cobra.NewPreprocessor(cat))
}

func sameResults(t *testing.T, tag string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: indexed %d segments, plain %d", tag, len(a), len(b))
	}
	for i := range a {
		if a[i].Interval != b[i].Interval || a[i].Confidence != b[i].Confidence {
			t.Fatalf("%s: segment %d indexed %+v, plain %+v", tag, i, a[i], b[i])
		}
	}
}

// plainRun evaluates src on the standing-query path, which reads every
// feature sample through its run-detection state machine and never
// touches the kernel's access paths: the reference the indexed
// one-shot path is checked against.
func plainRun(t *testing.T, e *Engine, src string) []Result {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewIncremental(e, q).Eval(context.Background(), nil)
	if err != nil {
		t.Fatalf("plain %q: %v", src, err)
	}
	return res
}

// TestFeatureCondIndexedMatchesLegacy runs every comparison operator
// repeatedly (so the column's zone map is built and then reused) and
// checks the indexed path returns segment-for-segment
// the plain sample-by-sample evaluation.
func TestFeatureCondIndexedMatchesLegacy(t *testing.T) {
	n := 3 * monet.MorselSize
	rng := rand.New(rand.NewSource(7))
	values := make([]float64, n)
	for i := range values {
		// Smooth-ish series with plateaus so threshold runs exceed the
		// 0.3 s noise floor.
		values[i] = 100 + 80*math.Sin(float64(i)/500) + float64(rng.Intn(3))
	}
	eIdx := bigFeatureEngine(t, values)

	for _, op := range []string{">", ">=", "<", "<=", "="} {
		for round := 0; round < 4; round++ {
			src := fmt.Sprintf(`SELECT SEGMENTS FROM race WHERE FEATURE('speed') %s 150`, op)
			got, err := eIdx.Run(src)
			if err != nil {
				t.Fatalf("%s round %d: %v", op, round, err)
			}
			want := plainRun(t, eIdx, src)
			sameResults(t, fmt.Sprintf("%s round %d", op, round), got, want)
		}
	}
}

// TestFeatureCondIndexedAfterAppendLikeMutation replaces the feature
// (PutFeature overwrites the BAT) after indexes exist and checks the
// fresh data is what queries see.
func TestFeatureCondIndexedSeesReplacedFeature(t *testing.T) {
	n := 3 * monet.MorselSize
	values := make([]float64, n)
	e := bigFeatureEngine(t, values)
	src := `SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 0.5`
	for round := 0; round < 4; round++ { // build, then reuse, the zone map
		if res, err := e.Run(src); err != nil || len(res) != 0 {
			t.Fatalf("round %d: %d segments, err %v", round, len(res), err)
		}
	}
	for i := 1000; i < 1100; i++ {
		values[i] = 1
	}
	cat := e.pre.Catalog()
	if err := cat.PutFeature(cobra.Feature{Video: "race", Name: "speed", SampleRate: 10, Values: values}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Interval.Start != 100 || res[0].Interval.End != 110 {
		t.Fatalf("post-replace segments = %+v", res)
	}
}

// TestFeatureCondNaNValuesMatchLegacy: NaN samples compare false under
// every operator; the indexed path must not let them match a range and
// must return the plain sample-by-sample answer.
func TestFeatureCondNaNValuesMatchLegacy(t *testing.T) {
	n := 3 * monet.MorselSize
	values := make([]float64, n)
	for i := range values {
		values[i] = float64(i % 100)
	}
	for i := 0; i < n; i += 997 {
		values[i] = math.NaN()
	}
	eIdx := bigFeatureEngine(t, values)
	src := `SELECT SEGMENTS FROM race WHERE FEATURE('speed') >= 50`
	for round := 0; round < 4; round++ {
		got, err := eIdx.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		want := plainRun(t, eIdx, src)
		sameResults(t, fmt.Sprintf("nan round %d", round), got, want)
	}
}

// growingQueries cover every comparison operator on an index-scale
// series, a NaN-bearing series, and a nested NOT/AND/OR/WITHIN
// condition over feature and event leaves, plus a bare event leaf whose
// tied starts pin the order late events are merged in.
var growingQueries = []string{
	"SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 150",
	"SELECT SEGMENTS FROM race WHERE FEATURE('speed') >= 150",
	"SELECT SEGMENTS FROM race WHERE FEATURE('speed') < 60",
	"SELECT SEGMENTS FROM race WHERE FEATURE('speed') <= 60",
	"SELECT SEGMENTS FROM race WHERE FEATURE('speed') = 100",
	"SELECT SEGMENTS FROM race WHERE FEATURE('wet') >= 50",
	"SELECT SEGMENTS FROM race WHERE EVENT('passing')",
	"SELECT SEGMENTS FROM race WHERE NOT (EVENT('passing') AND FEATURE('speed') > 120) " +
		"OR (EVENT('pitstop', driver='HILL') WITHIN 5 OF FEATURE('wet') < 20)",
}

// TestIndexedOneShotMatchesStandingAcrossAppends grows two
// index-scale feature series and an event relation in uneven chunks
// and checks, at every watermark, that a long-lived standing query
// (tail reads, leaf state carried across appends) and a one-shot
// execution (kernel access paths over the whole column, rebuilt after
// each append) render the same segments.
func TestIndexedOneShotMatchesStandingAcrossAppends(t *testing.T) {
	const rate = 10.0
	n := 3 * monet.MorselSize
	rng := rand.New(rand.NewSource(11))
	speed := make([]float64, n)
	wet := make([]float64, n)
	noise := 0.0
	for i := range speed {
		// Rounded values with blockwise noise hold plateaus long
		// enough for "=" runs to clear the noise floor.
		if i%8 == 0 {
			noise = float64(rng.Intn(3))
		}
		speed[i] = math.Round(100+80*math.Sin(float64(i)/500)) + noise
		wet[i] = float64(i/40%100) + float64(rng.Intn(2))
		if i%997 == 0 {
			wet[i] = math.NaN()
		}
	}

	cat := cobra.NewCatalog(monet.NewStore())
	if err := cat.PutVideo(cobra.Video{Name: "race", Duration: 1, FPS: 25}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cobra.NewPreprocessor(cat))
	queries := make([]*Query, len(growingQueries))
	standing := make([]*Incremental, len(growingQueries))
	for i, src := range growingQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		queries[i] = q
		standing[i] = NewIncremental(eng, q)
	}

	drivers := []string{"HILL", "SCHUMACHER", "HAKKINEN"}
	indexed := 0
	// Uneven chunks put watermarks inside morsels and on either side
	// of the kernel's index thresholds.
	for from, chunk := 0, 0; from < n; chunk++ {
		to := from + monet.MorselSize/3 + chunk*2711
		if to > n {
			to = n
		}
		if _, err := cat.AppendFeatureSamples("race", "speed", rate, speed[from:to]); err != nil {
			t.Fatal(err)
		}
		if _, err := cat.AppendFeatureSamples("race", "wet", rate, wet[from:to]); err != nil {
			t.Fatal(err)
		}
		// Events complete late, so some start before ones already
		// appended and the standing leaf has to merge them in; whole
		// second starts make ties, whose order is append order.
		watermark := float64(to) / rate
		var evs []cobra.Event
		for k := 0; k < 40; k++ {
			start := math.Floor(rng.Float64() * watermark)
			end := math.Min(start+1+rng.Float64()*20, watermark)
			typ := "passing"
			if k%3 == 0 {
				typ = "pitstop"
			}
			evs = append(evs, cobra.Event{Video: "race", Type: typ,
				Interval: cobra.Interval{Start: start, End: end}, Confidence: 0.5 + rng.Float64()/2,
				Attrs: map[string]string{"driver": drivers[k%len(drivers)]}})
		}
		if _, err := cat.AppendEvents("race", evs); err != nil {
			t.Fatal(err)
		}
		if err := cat.SetDuration("race", watermark); err != nil {
			t.Fatal(err)
		}
		from = to

		for i, inc := range standing {
			// Repeated one-shot runs let the cost gate graduate the
			// grown column before the compared run.
			var want []Result
			for round := 0; round < 3; round++ {
				res, root, err := eng.RunTraced(growingQueries[i])
				if err != nil {
					t.Fatalf("w=%.1f Execute(%q): %v", watermark, growingQueries[i], err)
				}
				want = res
				for _, sp := range collectSpans(root, "monet.scan") {
					if sp.Attr("fused") != "" {
						indexed++
					}
				}
			}
			got, err := inc.Eval(context.Background(), nil)
			if err != nil {
				t.Fatalf("w=%.1f Eval(%q): %v", watermark, growingQueries[i], err)
			}
			if len(got) != len(want) {
				t.Fatalf("w=%.1f %q: standing %d segments, one-shot %d",
					watermark, growingQueries[i], len(got), len(want))
			}
			for j := range got {
				if g, w := FormatResult(got[j]), FormatResult(want[j]); g != w {
					t.Fatalf("w=%.1f %q: segment %d differs\nstanding: %s\none-shot: %s",
						watermark, growingQueries[i], j, g, w)
				}
			}
		}
	}
	if indexed == 0 {
		t.Fatal("no one-shot feature leaf took the kernel's indexed path")
	}
}
