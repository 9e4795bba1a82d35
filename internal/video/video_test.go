package video

import (
	"bytes"
	"math/rand"
	"testing"
)

// noisyFill fills a frame with a base color plus per-pixel noise.
func noisyFill(f *Frame, r, g, b byte, noise int, rng *rand.Rand) {
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i] = clampByte(int(r) + rng.Intn(2*noise+1) - noise)
		f.Pix[i+1] = clampByte(int(g) + rng.Intn(2*noise+1) - noise)
		f.Pix[i+2] = clampByte(int(b) + rng.Intn(2*noise+1) - noise)
	}
}

func clampByte(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func TestFrameBasics(t *testing.T) {
	f := NewFrame(10, 5)
	f.Set(3, 2, 1, 2, 3)
	r, g, b := f.At(3, 2)
	if r != 1 || g != 2 || b != 3 {
		t.Fatalf("At = %d,%d,%d", r, g, b)
	}
	f.Fill(9, 9, 9)
	r, _, _ = f.At(0, 0)
	if r != 9 {
		t.Fatal("Fill failed")
	}
	f.FillRect(-5, -5, 2, 2, 7, 7, 7)
	if r, _, _ := f.At(1, 1); r != 7 {
		t.Fatal("FillRect clip failed")
	}
	c := f.Clone()
	c.Set(0, 0, 0, 0, 0)
	if r, _, _ := f.At(0, 0); r != 7 {
		t.Fatal("Clone aliases")
	}
}

func TestToGrayAndDownsample(t *testing.T) {
	f := NewFrame(8, 8)
	f.Fill(255, 255, 255)
	g := f.ToGray()
	if g.At(4, 4) != 254 && g.At(4, 4) != 255 {
		t.Fatalf("white gray = %d", g.At(4, 4))
	}
	d := g.Downsample(2)
	if d.W != 4 || d.H != 4 {
		t.Fatalf("downsample dims %dx%d", d.W, d.H)
	}
	if g.Downsample(1) != g {
		t.Fatal("factor 1 should return receiver")
	}
}

func TestColorHistogramNormalized(t *testing.T) {
	f := NewFrame(16, 16)
	f.Fill(10, 200, 100)
	h := ColorHistogram(f)
	sum := 0.0
	for _, v := range h {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("histogram sum = %v", sum)
	}
	if h.Diff(h) != 0 {
		t.Fatal("self-diff nonzero")
	}
	g := NewFrame(16, 16)
	g.Fill(250, 10, 10)
	h2 := ColorHistogram(g)
	if d := h.Diff(h2); d < 1.9 {
		t.Fatalf("disjoint histograms diff = %v, want ~2", d)
	}
}

func TestShotDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	det := NewShotDetector(DefaultShotConfig())
	total := 60
	cutAt := map[int]bool{20: true, 40: true}
	colors := [][3]byte{{60, 120, 60}, {150, 60, 60}, {60, 60, 160}}
	scene := 0
	for i := 0; i < total; i++ {
		if cutAt[i] {
			scene++
		}
		f := NewFrame(64, 48)
		c := colors[scene]
		noisyFill(f, c[0], c[1], c[2], 10, rng)
		det.Feed(ColorHistogram(f))
	}
	if len(det.Boundaries) != 2 {
		t.Fatalf("boundaries = %v, want cuts at 20 and 40", det.Boundaries)
	}
	for i, want := range []int{20, 40} {
		if det.Boundaries[i] != want {
			t.Fatalf("boundary %d = %d, want %d", i, det.Boundaries[i], want)
		}
	}
	shots := det.Shots(total)
	if len(shots) != 3 || shots[0] != [2]int{0, 20} || shots[2] != [2]int{40, 60} {
		t.Fatalf("shots = %v", shots)
	}
}

func TestShotDetectionNoFalsePositivesUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	det := NewShotDetector(DefaultShotConfig())
	for i := 0; i < 100; i++ {
		f := NewFrame(64, 48)
		noisyFill(f, 90, 110, 90, 25, rng)
		det.Feed(ColorHistogram(f))
	}
	if len(det.Boundaries) != 0 {
		t.Fatalf("noise produced boundaries %v", det.Boundaries)
	}
}

func TestMotionAmount(t *testing.T) {
	a := NewFrame(32, 32)
	b := NewFrame(32, 32)
	if m := MotionAmount(a, b); m != 0 {
		t.Fatalf("identical frames motion = %v", m)
	}
	b.Fill(255, 255, 255)
	if m := MotionAmount(a, b); m < 0.99 {
		t.Fatalf("opposite frames motion = %v", m)
	}
	c := NewFrame(16, 16)
	if m := MotionAmount(a, c); m != 1 {
		t.Fatalf("size mismatch motion = %v, want 1", m)
	}
}

// movingSquare renders a bright square at the given x offset on a dark
// textured background.
func movingSquare(w, h, x0 int, rng *rand.Rand) *Frame {
	f := NewFrame(w, h)
	noisyFill(f, 40, 45, 40, 6, rng)
	f.FillRect(x0, h/2-16, x0+32, h/2+16, 230, 230, 230)
	return f
}

func TestEstimateMotionTracksShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := movingSquare(256, 128, 60, rng)
	b := movingSquare(256, 128, 68, rng) // +8 px = +2 in 4x downsample
	mf := EstimateMotion(MotionGray(a), MotionGray(b), 3)
	// Blocks containing the square should show dx ≈ -2 (a→b block match
	// finds content shifted by -2 in b coords... direction depends on
	// convention: block in a matched at b position +dx).
	counts := map[int]int{}
	for _, v := range mf.Vectors {
		counts[v.DX]++
	}
	if counts[2] < 2 && counts[-2] < 2 {
		t.Fatalf("no blocks tracked the ±2 shift: %v", counts)
	}
}

func TestMotionHistogramPassing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Static camera, one car moving: counter-fraction small but nonzero.
	a := movingSquare(256, 128, 60, rng)
	b := movingSquare(256, 128, 72, rng)
	mf := EstimateMotion(MotionGray(a), MotionGray(b), 3)
	feat := MotionHistogram(mf, 3)
	if feat.CounterFraction <= 0 {
		t.Fatalf("moving object gave zero counter fraction: %+v", feat)
	}
	p := PassingProbability(feat)
	if p <= 0 || p > 1 {
		t.Fatalf("passing probability = %v", p)
	}
	// Static scene: zero counter motion.
	c := movingSquare(256, 128, 60, rng)
	d := movingSquare(256, 128, 60, rng)
	mf2 := EstimateMotion(MotionGray(c), MotionGray(d), 3)
	feat2 := MotionHistogram(mf2, 3)
	if feat2.CounterFraction > 0.05 {
		t.Fatalf("static scene counter fraction = %v", feat2.CounterFraction)
	}
}

func TestSemaphoreDetection(t *testing.T) {
	f := NewFrame(384, 288)
	f.Fill(80, 80, 90)
	// A red bar in the upper area, wider than tall.
	f.FillRect(150, 40, 230, 60, 220, 30, 30)
	s := DetectSemaphore(f)
	if !s.Present {
		t.Fatalf("semaphore not detected: %+v", s)
	}
	if s.Width < 70 || s.Height < 15 {
		t.Fatalf("bad box %+v", s)
	}
	// No red: absent.
	g := NewFrame(384, 288)
	g.Fill(80, 80, 90)
	if DetectSemaphore(g).Present {
		t.Fatal("false semaphore on plain frame")
	}
	// Red in lower half only: ignored.
	h := NewFrame(384, 288)
	h.Fill(80, 80, 90)
	h.FillRect(150, 250, 230, 270, 220, 30, 30)
	if DetectSemaphore(h).Present {
		t.Fatal("semaphore detected in lower half")
	}
}

func TestSemaphoreTrackerStartSignal(t *testing.T) {
	var tr SemaphoreTracker
	widths := []int{20, 30, 40, 52, 64}
	for _, w := range widths {
		if tr.Feed(SemaphoreFeature{Present: true, Width: w, Height: 10, Fill: 0.9}) {
			t.Fatal("start signaled while lights still on")
		}
	}
	if !tr.Feed(SemaphoreFeature{}) {
		t.Fatal("start not signaled when grown semaphore disappears")
	}
	// A non-growing semaphore (e.g. a red billboard) does not trigger.
	var tr2 SemaphoreTracker
	for _, w := range []int{40, 40, 39, 40} {
		tr2.Feed(SemaphoreFeature{Present: true, Width: w, Height: 10, Fill: 0.9})
	}
	if tr2.Feed(SemaphoreFeature{}) {
		t.Fatal("static red region should not signal a start")
	}
}

func TestSandDustDetection(t *testing.T) {
	f := NewFrame(100, 100)
	f.Fill(70, 110, 70)                        // grass
	f.FillRect(0, 50, 100, 100, 200, 170, 110) // sand trap lower half
	sd := DetectSandDust(f)
	if sd.SandFraction < 0.4 {
		t.Fatalf("sand fraction = %v, want ~0.5", sd.SandFraction)
	}
	p := FlyOutProbability(sd)
	if p < 0.9 {
		t.Fatalf("fly-out probability = %v", p)
	}
	g := NewFrame(100, 100)
	g.Fill(70, 110, 70)
	if got := FlyOutProbability(DetectSandDust(g)); got > 0.1 {
		t.Fatalf("grass-only fly-out probability = %v", got)
	}
}

func TestDustFilter(t *testing.T) {
	f := NewFrame(50, 50)
	f.Fill(190, 175, 150) // warm gray dust cloud
	sd := DetectSandDust(f)
	if sd.DustFraction < 0.5 {
		t.Fatalf("dust fraction = %v", sd.DustFraction)
	}
}

// wipeSequence renders a left-to-right wipe from scene A to scene B
// over n frames.
func wipeSequence(w, h, n int, rng *rand.Rand) []*Frame {
	frames := make([]*Frame, n)
	for i := range frames {
		f := NewFrame(w, h)
		split := w * i / (n - 1)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if x < split {
					f.Set(x, y, clampByte(200+rng.Intn(10)), 40, 40)
				} else {
					f.Set(x, y, 40, clampByte(160+rng.Intn(10)), 40)
				}
			}
		}
		frames[i] = f
	}
	return frames
}

func TestDVEDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	det := NewDVEDetector()
	var prev *Frame
	feed := func(f *Frame) bool {
		if prev == nil {
			prev = f
			return false
		}
		mf := EstimateMotion(MotionGray(prev), MotionGray(f), 2)
		prev = f
		return det.Feed(mf)
	}
	// Steady scene, then a wipe, then steady scene.
	for i := 0; i < 8; i++ {
		f := NewFrame(256, 128)
		noisyFill(f, 200, 40, 40, 5, rng)
		feed(f)
	}
	for _, f := range wipeSequence(256, 128, 20, rng) {
		feed(f)
	}
	hit := false
	for i := 0; i < 8; i++ {
		f := NewFrame(256, 128)
		noisyFill(f, 40, 160, 40, 5, rng)
		if feed(f) {
			hit = true
		}
	}
	if !hit && len(det.Events) == 0 {
		t.Fatal("wipe not detected as DVE")
	}
}

func TestReplayPairing(t *testing.T) {
	r := NewReplayDetector()
	r.FeedDVE(100)
	r.FeedDVE(250) // 150 frames = 15 s at 10 fps: a replay
	if len(r.Segments) != 1 || r.Segments[0] != [2]int{100, 250} {
		t.Fatalf("segments = %v", r.Segments)
	}
	// A too-short pair does not form a replay; second DVE reopens.
	r2 := NewReplayDetector()
	r2.FeedDVE(10)
	r2.FeedDVE(15)
	if len(r2.Segments) != 0 {
		t.Fatalf("short pair formed segment %v", r2.Segments)
	}
	r2.FeedDVE(200)
	if len(r2.Segments) != 1 || r2.Segments[0] != [2]int{15, 200} {
		t.Fatalf("reopened pairing = %v", r2.Segments)
	}
}

func TestReplayProbability(t *testing.T) {
	p := ReplayProbability([][2]int{{10, 20}}, 30)
	if p[15] != 1 || p[5] != 0 || p[25] != 0 {
		t.Fatalf("probabilities = %v", p)
	}
	if p[9] <= 0 || p[9] >= 1 {
		t.Fatalf("shoulder = %v", p[9])
	}
}

// TestMotionGrayMatchesToGrayDownsample checks the one-pass conversion
// against the two-step one it replaces, on a noisy frame whose size is
// not a multiple of the downsampling factor.
func TestMotionGrayMatchesToGrayDownsample(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := NewFrame(389, 291)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	got, want := MotionGray(f), f.ToGray().Downsample(4)
	if got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("MotionGray differs from ToGray().Downsample(4)")
	}
}

// TestBlockSADMatchesNaive checks block matching's word-at-a-time path
// against a per-pixel reference for every block and every shift of a
// search radius of 9, edges included: past the block edge of 8 a shift
// leaves the image entirely.
func TestBlockSADMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gray := func() *Gray {
		g := &Gray{W: 40, H: 24, Pix: make([]byte, 40*24)}
		for i := range g.Pix {
			g.Pix[i] = byte(rng.Intn(256))
		}
		return g
	}
	a, b := gray(), gray()
	naive := func(x0, y0, dx, dy int) float64 {
		sum := 0
		for y := y0; y < y0+motionBlock; y++ {
			for x := x0; x < x0+motionBlock; x++ {
				d := 255
				if bx, by := x+dx, y+dy; bx >= 0 && by >= 0 && bx < b.W && by < b.H {
					d = int(a.At(x, y)) - int(b.At(bx, by))
					if d < 0 {
						d = -d
					}
				}
				sum += d
			}
		}
		return float64(sum) / float64(motionBlock*motionBlock)
	}
	for y0 := 0; y0+motionBlock <= a.H; y0 += motionBlock {
		for x0 := 0; x0+motionBlock <= a.W; x0 += motionBlock {
			for dy := -9; dy <= 9; dy++ {
				for dx := -9; dx <= 9; dx++ {
					if got, want := blockSAD(a, b, x0, y0, dx, dy), naive(x0, y0, dx, dy); got != want {
						t.Fatalf("block (%d,%d) shift (%d,%d): %v, want %v", x0, y0, dx, dy, got, want)
					}
				}
			}
		}
	}
}
