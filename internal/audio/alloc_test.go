package audio

import (
	"math/rand"
	"testing"
)

// Allocation budgets for the analysis loops: scratch is hoisted out of
// the per-frame and per-clip loops, so what remains per frame is the
// mel energies, the cepstrum and the autocorrelation of a voiced frame,
// and per call a fixed handful of buffers.

func TestAnalyzeFramesAllocsPerFrame(t *testing.T) {
	a := newTestAnalyzer(t)
	samples := synthVoiced(22050, 2, 160, 0.3, rand.New(rand.NewSource(1)))
	nFrames := len(samples) / a.FrameLen()
	got := testing.AllocsPerRun(3, func() { a.AnalyzeFrames(samples) })
	if max := float64(3*nFrames + 8); got > max {
		t.Fatalf("AnalyzeFrames: %.0f allocs for %d frames, budget %.0f (per-frame scratch crept back in?)", got, nFrames, max)
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
