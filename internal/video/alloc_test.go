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
