package video

import "math"

// SemaphoreFeature describes the start-light detection result for one
// frame.
type SemaphoreFeature struct {
	// Present reports whether a plausible semaphore rectangle was found.
	Present bool
	// Width and Height are the bounding-box dimensions in pixels.
	Width, Height int
	// Fill is the fraction of bounding-box pixels that are red.
	Fill float64
}

// isRed reports whether a pixel passes the red-component filter the
// paper uses for the semaphore ("filtering the red component of the
// RGB color representation"): r > 150, r > 2g and r > 2b.
func isRed(r, g, b byte) bool {
	ri, gi, bi := int(r), int(g), int(b)
	// Each test holds iff its difference is negative; the AND of the
	// differences is negative iff all three are. No branch to mispredict
	// on noisy pixels near a threshold.
	return (150-ri)&(2*gi-ri)&(2*bi-ri) < 0
}

// DetectSemaphore scans the upper part of the frame for a compact red
// rectangular region: the start semaphore, whose red circles are so
// close they merge into a rectangle (§5.3).
func DetectSemaphore(f *Frame) SemaphoreFeature {
	minX, minY := f.W, f.H
	maxX, maxY := -1, -1
	count := 0
	// The semaphore gantry hangs high over the grid: only the upper
	// third of the picture qualifies, which keeps red cars on the track
	// from mimicking it.
	for y := 0; y < f.H/3; y++ {
		row := f.Pix[3*y*f.W : 3*(y+1)*f.W]
		for x := 0; x < f.W; x++ {
			if !isRed(row[3*x], row[3*x+1], row[3*x+2]) {
				continue
			}
			count++
			minX, maxX = min(minX, x), max(maxX, x)
			minY, maxY = min(minY, y), max(maxY, y)
		}
	}
	if maxX < 0 {
		return SemaphoreFeature{}
	}
	w, h := maxX-minX+1, maxY-minY+1
	fill := float64(count) / float64(w*h)
	// A semaphore is a wide, well-filled box of meaningful size.
	present := w >= 8 && h >= 3 && w >= h && fill > 0.5 &&
		count > f.W*f.H/2000
	return SemaphoreFeature{Present: present, Width: w, Height: h, Fill: fill}
}

// SemaphoreTracker follows the semaphore's horizontal growth over
// frames. The paper notes the rectangle "is increasing its horizontal
// dimension in regular time intervals"; regular growth followed by
// disappearance marks the start.
type SemaphoreTracker struct {
	widths []int
	// StartSignal becomes true on the frame where a tracked, growing
	// semaphore disappears (lights out — go!).
	StartSignal bool
}

// Feed processes the semaphore feature of the next frame and returns
// the current start-signal state.
func (t *SemaphoreTracker) Feed(s SemaphoreFeature) bool {
	t.StartSignal = false
	if s.Present {
		t.widths = append(t.widths, s.Width)
		return false
	}
	if len(t.widths) >= 3 && grewMonotonically(t.widths) {
		t.StartSignal = true
	}
	t.widths = t.widths[:0]
	return t.StartSignal
}

// grewMonotonically reports whether the width series is (weakly)
// non-decreasing and ends wider than it began.
func grewMonotonically(w []int) bool {
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1]-1 { // tolerate one pixel of jitter
			return false
		}
	}
	return w[len(w)-1] > w[0]
}

// SandDustFeature holds the fly-out color cues.
type SandDustFeature struct {
	// SandFraction is the fraction of pixels passing the sand filter.
	SandFraction float64
	// DustFraction is the fraction of pixels passing the dust filter.
	DustFraction float64
}

// isSand matches the yellowish-brown of gravel traps: 140 < r < 240,
// r·6/10 < g < r·95/100 and b < g·8/10 with Go's truncating integer
// division. For a non-negative integer v, v > ⌊y⌋ ⇔ v > y and
// v < ⌊y⌋ ⇔ v+1 ≤ y, so the tests multiply instead of divide.
func isSand(r, g, b byte) bool {
	ri, gi, bi := int(r), int(g), int(b)
	return ri > 140 && ri < 240 &&
		10*gi > 6*ri && 100*(gi+1) <= 95*ri &&
		10*(bi+1) <= 8*gi
}

// isDust matches the brighter gray-brown of a dust cloud: a mean
// (r+g+b)/3 in [120, 230], that is a sum in [360, 692], and a
// near-neutral color with a warm cast, 0 ≤ r-g < 30 and 0 < g-b < 60.
func isDust(r, g, b byte) bool {
	ri, gi, bi := int(r), int(g), int(b)
	if sum := ri + gi + bi; sum < 360 || sum > 692 {
		return false
	}
	return uint(ri-gi) < 30 && uint(gi-bi-1) < 59
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// DetectSandDust computes the fly-out color fractions over the whole
// frame (§5.3: "fly outs usually come with a lot of sand and dust").
func DetectSandDust(f *Frame) SandDustFeature {
	sand, dust := 0, 0
	n := f.W * f.H
	for i := 0; i+3 <= len(f.Pix); i += 3 {
		p := f.Pix[i : i+3 : i+3]
		// Neither filter passes r < 120: sand needs r > 140, and dust
		// needs r ≥ g > b with r+g+b ≥ 360. Most of a frame stops here.
		if p[0] < 120 {
			continue
		}
		if isSand(p[0], p[1], p[2]) {
			sand++
		} else if isDust(p[0], p[1], p[2]) {
			dust++
		}
	}
	return SandDustFeature{
		SandFraction: float64(sand) / float64(n),
		DustFraction: float64(dust) / float64(n),
	}
}

// FlyOutProbability maps sand/dust fractions to the fly-out cue used
// by the probabilistic network.
func FlyOutProbability(sd SandDustFeature) float64 {
	p := 4*sd.SandFraction + 6*sd.DustFraction
	if p > 1 {
		p = 1
	}
	return p
}

// DVEDetector finds digital video effects — the wipes that bracket
// replay scenes. The paper uses an algorithm "based on motion flow and
// pattern matching": a wipe produces a compact high-residual band in
// the motion field that sweeps monotonically across the picture.
type DVEDetector struct {
	// Threshold is the per-column mean SAD above which a column is
	// considered part of the wipe front.
	Threshold float64
	// MinRun is the number of consecutive frames the front must sweep.
	MinRun int

	fronts []int // recent front positions; -1 when absent
	// Events records frame indices at which a completed DVE ended.
	Events []int
	frame  int
	cols   []float64 // wipeFront's per-column scratch, reused frame to frame
}

// NewDVEDetector returns a detector with calibrated defaults.
func NewDVEDetector() *DVEDetector {
	return &DVEDetector{Threshold: 6, MinRun: 4}
}

// Feed processes the motion field between the previous and current
// frame; it returns true when a completed DVE is recognized.
func (d *DVEDetector) Feed(mf *MotionField) bool {
	if cap(d.cols) < mf.BlocksX {
		d.cols = make([]float64, mf.BlocksX)
	}
	front := wipeFront(mf, d.Threshold, d.cols[:mf.BlocksX])
	d.frame++
	detected := false
	if front >= 0 {
		d.fronts = append(d.fronts, front)
	} else {
		if len(d.fronts) >= d.MinRun && monotonicFront(d.fronts) {
			d.Events = append(d.Events, d.frame-1)
			detected = true
		}
		d.fronts = d.fronts[:0]
	}
	return detected
}

// wipeFront returns the block column with maximal residual if the
// residual is concentrated in a narrow band, else -1. cols is scratch
// of length mf.BlocksX; its contents are overwritten.
func wipeFront(mf *MotionField, threshold float64, cols []float64) int {
	clear(cols)
	for y := 0; y < mf.BlocksY; y++ {
		for x := 0; x < mf.BlocksX; x++ {
			cols[x] += mf.ZeroSADs[y*mf.BlocksX+x]
		}
	}
	for x := range cols {
		cols[x] /= float64(mf.BlocksY)
	}
	bestX, bestV := -1, threshold
	total, above := 0.0, 0
	for x, v := range cols {
		total += v
		if v > threshold {
			above++
		}
		if v > bestV {
			bestX, bestV = x, v
		}
	}
	if bestX < 0 {
		return -1
	}
	// The band must be narrow (wipe front), not global (cut/action).
	if above > mf.BlocksX/2 {
		return -1
	}
	// And it must dominate the average clearly.
	if bestV < 2*total/float64(len(cols)) {
		return -1
	}
	return bestX
}

// monotonicFront reports whether front positions sweep decisively in
// one direction: single-block jitter reversals are tolerated (camera
// shake), larger reversals are not, and the net sweep must cover at
// least three block columns.
func monotonicFront(fs []int) bool {
	if len(fs) < 2 {
		return false
	}
	net := fs[len(fs)-1] - fs[0]
	if abs(net) < 3 {
		return false
	}
	dir := 1
	if net < 0 {
		dir = -1
	}
	for i := 1; i < len(fs); i++ {
		d := (fs[i] - fs[i-1]) * dir
		if d < -1 {
			return false
		}
	}
	return true
}

// ReplayDetector pairs DVE events into replay segments: a replay is
// bracketed by two DVEs within a plausible duration window (§5.3).
type ReplayDetector struct {
	// MinFrames and MaxFrames bound the replay length in frames.
	MinFrames, MaxFrames int
	pending              int // frame of the unmatched opening DVE, -1 if none
	// Segments collects [start, end) frame intervals of replays.
	Segments [][2]int
}

// NewReplayDetector returns a detector for 10 fps feature streams:
// replays run a few seconds to ~40 s.
func NewReplayDetector() *ReplayDetector {
	return &ReplayDetector{MinFrames: 20, MaxFrames: 400, pending: -1}
}

// FeedDVE registers a DVE at the given frame index.
func (r *ReplayDetector) FeedDVE(frame int) {
	if r.pending < 0 {
		r.pending = frame
		return
	}
	length := frame - r.pending
	if length >= r.MinFrames && length <= r.MaxFrames {
		r.Segments = append(r.Segments, [2]int{r.pending, frame})
		r.pending = -1
		return
	}
	// Too short or too long: treat this DVE as a new opening.
	r.pending = frame
}

// ReplayProbability returns per-frame replay likelihood over total
// frames given detected segments (1 inside a segment, 0 outside, with
// soft 2-frame shoulders).
func ReplayProbability(segments [][2]int, total int) []float64 {
	out := make([]float64, total)
	for _, s := range segments {
		for f := s[0]; f < s[1] && f < total; f++ {
			if f >= 0 {
				out[f] = 1
			}
		}
		for d := 1; d <= 2; d++ {
			if s[0]-d >= 0 && s[0]-d < total {
				out[s[0]-d] = math.Max(out[s[0]-d], 1-0.4*float64(d))
			}
			if s[1]+d-1 >= 0 && s[1]+d-1 < total {
				out[s[1]+d-1] = math.Max(out[s[1]+d-1], 1-0.4*float64(d))
			}
		}
	}
	return out
}
