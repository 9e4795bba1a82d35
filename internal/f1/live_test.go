package f1

import (
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/query"
	"cobra/internal/stream"
	"cobra/internal/synth"
)

// TestLiveSeriesBeforeFirstStep checks that a live video answers from
// registration on: before the first Step every series it airs exists,
// empty, so a FEATURE one-shot returns no segments and a standing class
// primes on that empty result instead of failing until a tick lands.
func TestLiveSeriesBeforeFirstStep(t *testing.T) {
	f, err := Extract(synth.GenerateRace(synth.GermanGP, 2, 1), Options{Seed: 1, SkipVideo: true})
	if err != nil {
		t.Fatal(err)
	}
	cat := cobra.NewCatalog(monet.NewStore())
	if _, err := NewLiveIngestorFrom(cat, "live-gp", f); err != nil {
		t.Fatal(err)
	}
	eng := query.NewEngine(cobra.NewPreprocessor(cat))
	for _, name := range []string{"pitchavg", "replay", "audioex"} {
		src := "SELECT SEGMENTS FROM live-gp WHERE FEATURE('" + name + "') > 0.5"
		res, err := eng.Run(src)
		if err != nil {
			t.Fatalf("%s before the first Step: %v", name, err)
		}
		if len(res) != 0 {
			t.Fatalf("%s before the first Step: %d segments, want none", name, len(res))
		}
		sub, err := stream.NewManager(eng).Subscribe(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		n, ok := sub.TryNext()
		if !ok || n.Seq != 1 || len(n.Lines) != 0 {
			t.Fatalf("%s: the standing class did not prime on the empty series: %+v, %v", name, n, ok)
		}
	}
}
