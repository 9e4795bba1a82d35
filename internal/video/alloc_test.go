package video

import "testing"

// TestDVEFeedAllocs pins the DVE detector's steady state: the
// per-column scratch of the wipe-front search is reused frame to frame,
// so a frame without a wipe front allocates nothing.
func TestDVEFeedAllocs(t *testing.T) {
	det := NewDVEDetector()
	mf := &MotionField{BlocksX: 24, BlocksY: 18, ZeroSADs: make([]float64, 24*18)}
	got := testing.AllocsPerRun(10, func() { det.Feed(mf) })
	if got != 0 {
		t.Fatalf("DVEDetector.Feed: %.0f allocs per frame, want 0", got)
	}
}

// TestEstimateMotionAllocs pins block matching to the field it returns
// and its four per-block slices: the gray conversion is the caller's,
// made once per frame by MotionGray.
func TestEstimateMotionAllocs(t *testing.T) {
	a, b := MotionGray(NewFrame(384, 288)), MotionGray(NewFrame(384, 288))
	got := testing.AllocsPerRun(10, func() { EstimateMotion(a, b, 3) })
	if got > 5 {
		t.Fatalf("EstimateMotion: %.0f allocs per pair, want at most 5", got)
	}
}

// TestShotFeedAllocs pins the shot detector's steady state: it takes
// the frame's histogram, so a frame costs no histogram of its own, and
// its window of past histograms shifts in place. Only the diagnostic
// Diffs series grows, amortized.
func TestShotFeedAllocs(t *testing.T) {
	det := NewShotDetector(DefaultShotConfig())
	h := ColorHistogram(NewFrame(64, 48))
	for i := 0; i < 10; i++ {
		det.Feed(h)
	}
	got := testing.AllocsPerRun(100, func() { det.Feed(h) })
	if got != 0 {
		t.Fatalf("ShotDetector.Feed: %.0f allocs per frame, want 0", got)
	}
}
