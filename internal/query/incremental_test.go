package query

import (
	"context"
	"fmt"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/synth"
)

// incrementalQueries exercises every leaf kind, the set operators, and
// the LAST window against a live feed.
var incrementalQueries = []string{
	"SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')",
	"SELECT SEGMENTS FROM live-gp WHERE EVENT('pitstop', driver='SCHUMACHER')",
	"SELECT SEGMENTS FROM live-gp WHERE TEXT CONTAINS 'PIT'",
	"SELECT SEGMENTS FROM live-gp WHERE FEATURE('audioex') > 0.6",
	"SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') AND FEATURE('motion') > 0.5",
	"SELECT SEGMENTS FROM live-gp WHERE EVENT('flyout') OR FEATURE('dust') > 0.5",
	"SELECT SEGMENTS FROM live-gp WHERE NOT EVENT('replay')",
	"SELECT SEGMENTS FROM live-gp WHERE EVENT('pitstop') WITHIN 10 OF EVENT('passing')",
	"SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 30 S ORDER BY CONFIDENCE DESC LIMIT 5",
	"SELECT SEGMENTS FROM live-gp LAST 15",
}

// TestIncrementalMatchesOneShot drives a live ingest and checks, at
// every watermark and at several kernel pool widths, that the
// incremental evaluator's rendered result is byte-identical to a
// one-shot execution of the same query — the streaming acceptance
// criterion.
func TestIncrementalMatchesOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("full live-feed equivalence sweep in -short mode")
	}
	// Extraction is byte-identical at every pool width, so the race is
	// extracted once and aired into a fresh catalog per width.
	race := synth.GenerateRace(synth.GermanGP, 120, 42)
	feats, err := f1.Extract(race, f1.Options{Seed: 7})
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	for _, width := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			prev := monet.SetDefaultPoolWorkers(width)
			defer monet.SetDefaultPoolWorkers(prev)

			cat := cobra.NewCatalog(monet.NewStore())
			ing, err := f1.NewLiveIngestorFrom(cat, "live-gp", feats)
			if err != nil {
				t.Fatalf("NewLiveIngestorFrom: %v", err)
			}
			eng := NewEngine(cobra.NewPreprocessor(cat))

			queries := make([]*Query, len(incrementalQueries))
			incs := make([]*Incremental, len(incrementalQueries))
			for i, src := range incrementalQueries {
				q, err := Parse(src)
				if err != nil {
					t.Fatalf("Parse(%q): %v", src, err)
				}
				queries[i] = q
				incs[i] = NewIncremental(eng, q)
			}

			for !ing.Done() {
				w, err := ing.Step(7.3)
				if err != nil {
					t.Fatalf("Step: %v", err)
				}
				for i, inc := range incs {
					got, err := inc.Eval(context.Background(), nil)
					if err != nil {
						t.Fatalf("w=%.1f Eval(%q): %v", w, incrementalQueries[i], err)
					}
					want, err := eng.Execute(queries[i])
					if err != nil {
						t.Fatalf("w=%.1f Execute(%q): %v", w, incrementalQueries[i], err)
					}
					if len(got) != len(want) {
						t.Fatalf("w=%.1f %q: incremental %d segments, one-shot %d",
							w, incrementalQueries[i], len(got), len(want))
					}
					for j := range got {
						g, wnt := FormatResult(got[j]), FormatResult(want[j])
						if g != wnt {
							t.Fatalf("w=%.1f %q: segment %d differs\nincremental: %s\none-shot:    %s",
								w, incrementalQueries[i], j, g, wnt)
						}
					}
				}
			}
		})
	}
}

// TestParseLastWindow checks the LAST clause's grammar corner cases.
func TestParseLastWindow(t *testing.T) {
	q, err := Parse("SELECT SEGMENTS FROM v WHERE EVENT('passing') LAST 30 S ORDER BY START LIMIT 2")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Window != 30 || q.OrderBy != "start" || q.Limit != 2 {
		t.Fatalf("got window=%v orderBy=%q limit=%d", q.Window, q.OrderBy, q.Limit)
	}
	if q, err = Parse("SELECT SEGMENTS FROM v LAST 7.5"); err != nil || q.Window != 7.5 {
		t.Fatalf("unitless LAST: q=%+v err=%v", q, err)
	}
	for _, bad := range []string{
		"SELECT SEGMENTS FROM v LAST",
		"SELECT SEGMENTS FROM v LAST 0",
		"SELECT SEGMENTS FROM v LAST x",
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// TestPostProcessWindow pins the window semantics: a segment survives
// when it overlaps the trailing window (End strictly past the cut).
func TestPostProcessWindow(t *testing.T) {
	q := &Query{Window: 10}
	res := []Result{
		{Interval: cobra.Interval{Start: 0, End: 95}},  // straddles the cut
		{Interval: cobra.Interval{Start: 0, End: 90}},  // ends exactly at the cut
		{Interval: cobra.Interval{Start: 95, End: 99}}, // inside the window
	}
	out := postProcess(q, 100, res)
	if len(out) != 2 {
		t.Fatalf("got %d segments, want 2: %+v", len(out), out)
	}
	if out[0].Interval.End != 95 || out[1].Interval.End != 99 {
		t.Fatalf("unexpected survivors: %+v", out)
	}
}
