package audio

import (
	"math/rand"
	"testing"
)

// Allocation budgets for the analysis loops: all scratch — the power
// spectrum, mel energies, cepstrum and autocorrelation — is hoisted out
// of the per-frame and per-clip loops, so a call allocates a fixed
// handful of buffers however long its signal is.

func TestAnalyzeFramesAllocsPerFrame(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(1))
	for _, dur := range []float64{0.5, 2} {
		samples := synthVoiced(22050, dur, 160, 0.3, rng)
		got := testing.AllocsPerRun(3, func() { a.AnalyzeFrames(samples) })
		if got > 8 {
			t.Fatalf("AnalyzeFrames: %.0f allocs for %d frames, budget 8 per call, 0 per frame (per-frame scratch crept back in?)",
				got, len(samples)/a.FrameLen())
		}
	}
}

func TestClipsAllocsPerCall(t *testing.T) {
	a := newTestAnalyzer(t)
	frames := a.AnalyzeFrames(synthVoiced(22050, 2, 160, 0.3, rand.New(rand.NewSource(1))))
	got := testing.AllocsPerRun(3, func() { a.Clips(frames) })
	if got > 8 {
		t.Fatalf("Clips: %.0f allocs for %d clips, budget 8 (per-clip scratch crept back in?)", got, len(frames)/a.FramesPerClip())
	}
}
