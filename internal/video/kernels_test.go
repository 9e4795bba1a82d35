package video

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The rewritten kernels must equal these direct loops bit for bit.

func naiveMotionAmount(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		return 1
	}
	sum := 0
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Pix)) / 255
}

func naiveColorHistogram(f *Frame) *Histogram {
	var h Histogram
	for i := 0; i < len(f.Pix); i += 3 {
		r := int(f.Pix[i]) * histBins / 256
		g := int(f.Pix[i+1]) * histBins / 256
		b := int(f.Pix[i+2]) * histBins / 256
		h[(r*histBins+g)*histBins+b]++
	}
	inv := 1 / float64(f.W*f.H)
	for i := range h {
		h[i] *= inv
	}
	return &h
}

func naiveFillRect(f *Frame, x0, y0, x1, y1 int, r, g, b byte) {
	for y := max(y0, 0); y < min(y1, f.H); y++ {
		for x := max(x0, 0); x < min(x1, f.W); x++ {
			f.Set(x, y, r, g, b)
		}
	}
}

func randomFrame(rng *rand.Rand, w, h int) *Frame {
	f := NewFrame(w, h)
	for i := range f.Pix {
		switch rng.Intn(4) {
		case 0:
			f.Pix[i] = 0
		case 1:
			f.Pix[i] = 255
		default:
			f.Pix[i] = byte(rng.Intn(256))
		}
	}
	return f
}

// TestAbsDiff8Exhaustive checks every byte pair in every lane, next to
// fixed bytes in a neighbouring lane.
func TestAbsDiff8Exhaustive(t *testing.T) {
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			for lane := 0; lane < 8; lane++ {
				a := uint64(x)<<(8*lane) | 0x5a00000000000000>>(8*(lane%2))
				b := uint64(y)<<(8*lane) | 0xa500000000000000>>(8*(lane%2))
				d := absDiff8(a, b)
				for k := 0; k < 8; k++ {
					p, q := int(a>>(8*k)&0xff), int(b>>(8*k)&0xff)
					want := p - q
					if want < 0 {
						want = -want
					}
					if got := int(d >> (8 * k) & 0xff); got != want {
						t.Fatalf("|%d-%d| in byte %d = %d", p, q, k, got)
					}
				}
			}
		}
	}
}

func TestMotionAmountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// Byte counts 3, 9, 21, ... are not multiples of 8; 384x288 crosses
	// many 128-word flushes.
	for _, wh := range [][2]int{{1, 1}, {3, 1}, {7, 1}, {5, 3}, {13, 11}, {384, 288}} {
		a, b := randomFrame(rng, wh[0], wh[1]), randomFrame(rng, wh[0], wh[1])
		if got, want := MotionAmount(a, b), naiveMotionAmount(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d: %v, want %v", wh[0], wh[1], got, want)
		}
	}
	// All-maximal differences fill every 16-bit lane to its bound.
	a, b := NewFrame(384, 288), NewFrame(384, 288)
	b.Fill(255, 255, 255)
	if got := MotionAmount(a, b); got != 1 {
		t.Fatalf("black vs white: %v, want 1", got)
	}
}

func TestColorHistogramMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, wh := range [][2]int{{1, 1}, {3, 1}, {5, 3}, {384, 288}} {
		f := randomFrame(rng, wh[0], wh[1])
		got, want := ColorHistogram(f), naiveColorHistogram(f)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%dx%d cell %d: %v, want %v", wh[0], wh[1], i, got[i], want[i])
			}
		}
	}
}

func TestFillRectMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	base := randomFrame(rng, 37, 23)
	for i := 0; i < 500; i++ {
		x0, x1 := rng.Intn(60)-10, rng.Intn(60)-10
		y0, y1 := rng.Intn(40)-8, rng.Intn(40)-8
		c := byte(rng.Intn(256))
		got, want := base.Clone(), base.Clone()
		got.FillRect(x0, y0, x1, y1, c, c^0x55, c^0xaa)
		naiveFillRect(want, x0, y0, x1, y1, c, c^0x55, c^0xaa)
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("FillRect(%d, %d, %d, %d) differs", x0, y0, x1, y1)
		}
	}
	got := base.Clone()
	got.Fill(1, 2, 3)
	want := base.Clone()
	naiveFillRect(want, 0, 0, want.W, want.H, 1, 2, 3)
	if !bytes.Equal(got.Pix, want.Pix) {
		t.Fatal("Fill differs")
	}
}

// sceneFrame is a broadcast-like 384x288 frame: sky, billboard, grass,
// gravel, asphalt and a red car in flat bands under ±4 of noise.
func sceneFrame(rng *rand.Rand, shift int) *Frame {
	f := NewFrame(384, 288)
	f.FillRect(0, 0, 384, 110, 150, 190, 240)
	f.FillRect(40+shift, 86, 136+shift, 110, 90, 165, 120)
	f.FillRect(0, 110, 384, 180, 60, 140, 55)
	f.FillRect(150, 136, 384, 180, 205, 175, 115)
	f.FillRect(0, 180, 384, 288, 95, 95, 102)
	f.FillRect(100+3*shift, 200, 144+3*shift, 218, 210, 30, 30)
	for i, v := range f.Pix {
		f.Pix[i] = clampByte(int(v) + rng.Intn(9) - 4)
	}
	return f
}

// benchSink keeps benchmarked results alive.
var benchSink any

// BenchmarkEstimateMotion matches blocks between two 384x288 frames'
// gray images at the extractor's search radius of 3.
func BenchmarkEstimateMotion(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ga, gb := MotionGray(sceneFrame(rng, 0)), MotionGray(sceneFrame(rng, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = EstimateMotion(ga, gb, 3)
	}
}

// BenchmarkFrameKernels runs the per-frame measurements of the
// extractor's map over one 384x288 frame pair.
func BenchmarkFrameKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fa, fb := sceneFrame(rng, 0), sceneFrame(rng, 2)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"ColorHistogram", func() { benchSink = ColorHistogram(fb) }},
		{"DetectSemaphore", func() { benchSink = DetectSemaphore(fb) }},
		{"DetectSandDust", func() { benchSink = DetectSandDust(fb) }},
		{"MotionAmount", func() { benchSink = MotionAmount(fa, fb) }},
		{"MotionGray", func() { benchSink = MotionGray(fb) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn()
			}
		})
	}
}

func naiveIsSand(r, g, b byte) bool {
	return r > 140 && r < 240 &&
		int(g) > int(r)*6/10 && int(g) < int(r)*95/100 &&
		int(b) < int(g)*8/10
}

func naiveIsRed(r, g, b byte) bool {
	return r > 150 && int(r) > int(g)*2 && int(r) > int(b)*2
}

func naiveIsDust(r, g, b byte) bool {
	ri, gi, bi := int(r), int(g), int(b)
	avg := (ri + gi + bi) / 3
	if avg < 120 || avg > 230 {
		return false
	}
	return abs(ri-gi) < 30 && gi > bi && gi-bi < 60 && ri >= gi
}

func naiveDetectSandDust(f *Frame) SandDustFeature {
	sand, dust := 0, 0
	for i := 0; i < len(f.Pix); i += 3 {
		r, g, b := f.Pix[i], f.Pix[i+1], f.Pix[i+2]
		if naiveIsSand(r, g, b) {
			sand++
		} else if naiveIsDust(r, g, b) {
			dust++
		}
	}
	n := float64(f.W * f.H)
	return SandDustFeature{SandFraction: float64(sand) / n, DustFraction: float64(dust) / n}
}

func naiveDetectSemaphore(f *Frame) SemaphoreFeature {
	minX, minY, maxX, maxY, count := f.W, f.H, -1, -1, 0
	for y := 0; y < f.H/3; y++ {
		for x := 0; x < f.W; x++ {
			if r, g, b := f.At(x, y); naiveIsRed(r, g, b) {
				count++
				minX, maxX = min(minX, x), max(maxX, x)
				minY, maxY = min(minY, y), max(maxY, y)
			}
		}
	}
	if maxX < 0 {
		return SemaphoreFeature{}
	}
	w, h := maxX-minX+1, maxY-minY+1
	fill := float64(count) / float64(w*h)
	present := w >= 8 && h >= 3 && w >= h && fill > 0.5 && count > f.W*f.H/2000
	return SemaphoreFeature{Present: present, Width: w, Height: h, Fill: fill}
}

// TestFrameDetectorsMatchNaive runs the sand/dust and semaphore scans
// against per-pixel loops over the defining filters, on noisy frames
// whose colors straddle every threshold.
func TestFrameDetectorsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := []*Frame{randomFrame(rng, 37, 23), sceneFrame(rng, 0), NewFrame(5, 3)}
	for _, c := range [][3]byte{{119, 100, 50}, {120, 110, 100}, {141, 120, 80}, {151, 75, 75}, {200, 170, 110}, {180, 165, 130}} {
		f := NewFrame(40, 30)
		for i := 0; i < len(f.Pix); i += 3 {
			for k := 0; k < 3; k++ {
				f.Pix[i+k] = clampByte(int(c[k]) + rng.Intn(9) - 4)
			}
		}
		frames = append(frames, f)
	}
	for i, f := range frames {
		if got, want := DetectSandDust(f), naiveDetectSandDust(f); got != want {
			t.Fatalf("frame %d: DetectSandDust %+v, want %+v", i, got, want)
		}
		if got, want := DetectSemaphore(f), naiveDetectSemaphore(f); got != want {
			t.Fatalf("frame %d: DetectSemaphore %+v, want %+v", i, got, want)
		}
	}
}

// TestColorFiltersExhaustive checks the branch-free red filter and the
// division-free sand and dust filters against their defining formulas
// on every RGB color.
func TestColorFiltersExhaustive(t *testing.T) {
	for c := 0; c < 1<<24; c++ {
		r, g, b := byte(c>>16), byte(c>>8), byte(c)
		if isSand(r, g, b) != naiveIsSand(r, g, b) {
			t.Fatalf("isSand(%d, %d, %d) = %v", r, g, b, isSand(r, g, b))
		}
		if isRed(r, g, b) != naiveIsRed(r, g, b) {
			t.Fatalf("isRed(%d, %d, %d) = %v", r, g, b, isRed(r, g, b))
		}
		if isDust(r, g, b) != naiveIsDust(r, g, b) {
			t.Fatalf("isDust(%d, %d, %d) = %v", r, g, b, isDust(r, g, b))
		}
	}
}
