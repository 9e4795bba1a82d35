package synth

import "testing"

// TestRenderFrameAllocs pins RenderFrame's allocations: a live frame
// costs only the frame it returns (the struct and its pixels); a wipe
// adds the frame of the live picture it composites, and a caption its
// text and rendered word. Pixel noise, the scene and the wipe itself
// work in place.
func TestRenderFrameAllocs(t *testing.T) {
	r := GenerateRace(GermanGP, 300, 42)
	var wipeAt, captionAt float64 = -1, -1
	for _, e := range r.Events {
		if e.Type == EventReplay {
			wipeAt = e.Start + dveDur/2
			break
		}
	}
	if len(r.Captions) > 0 {
		captionAt = (r.Captions[0].Start + r.Captions[0].End) / 2
	}
	if wipeAt < 0 || captionAt < 0 {
		t.Fatal("race has no replay or no caption")
	}
	for _, c := range []struct {
		name   string
		t      float64
		budget float64
	}{
		{"live", 1, 2},
		{"wipe", wipeAt, 5},
		{"caption", captionAt, 6},
	} {
		got := testing.AllocsPerRun(5, func() { r.RenderFrame(c.t) })
		if got > c.budget {
			t.Errorf("RenderFrame (%s): %.0f allocs, budget %.0f", c.name, got, c.budget)
		}
		t.Logf("RenderFrame (%s): %.0f allocs", c.name, got)
	}
}
