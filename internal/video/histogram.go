package video

import "math"

// histBins is the per-channel bin count of the color histogram.
const histBins = 8

// Histogram is a normalized RGB color histogram with 8 bins per
// channel (512 cells).
type Histogram [histBins * histBins * histBins]float64

// ColorHistogram computes the frame's normalized color histogram. It
// counts in integers, alternating between two tables so that runs of
// one color do not serialize on a single counter, and converts each
// count once: an integer count is what the float increments summed to,
// exactly, so the result is the same bit for bit.
func ColorHistogram(f *Frame) *Histogram {
	var counts [2][len(Histogram{})]uint32
	pix := f.Pix
	i := 0
	for ; i+6 <= len(pix); i += 6 {
		p := pix[i : i+6 : i+6]
		counts[0][histCell(p[0], p[1], p[2])]++
		counts[1][histCell(p[3], p[4], p[5])]++
	}
	if i+3 <= len(pix) {
		counts[0][histCell(pix[i], pix[i+1], pix[i+2])]++
	}
	var h Histogram
	inv := 1 / float64(f.W*f.H)
	for c := range h {
		h[c] = float64(counts[0][c]+counts[1][c]) * inv
	}
	return &h
}

// histCell returns the histogram cell of a pixel: the top three bits of
// each channel, that is int(v)*histBins/256.
func histCell(r, g, b byte) int {
	return int(r>>5)<<6 | int(g>>5)<<3 | int(b>>5)
}

// histCell assumes eight bins a channel: this fails to compile otherwise.
var _ = [1]struct{}{}[histBins-8]

// Diff returns the L1 distance between two histograms, in [0, 2].
func (h *Histogram) Diff(other *Histogram) float64 {
	d := 0.0
	for i := range h {
		d += math.Abs(h[i] - other[i])
	}
	return d
}

// ShotDetectorConfig parameterizes histogram-based shot detection.
type ShotDetectorConfig struct {
	// Window is the number of preceding frames whose mean histogram the
	// current frame is compared against; the paper modifies the simple
	// algorithm to difference "among several consecutive frames".
	Window int
	// Threshold is the L1 histogram distance that declares a boundary.
	Threshold float64
	// MinShotLen is the minimum number of frames between boundaries.
	MinShotLen int
}

// DefaultShotConfig returns parameters that detect hard cuts reliably
// at 10 fps feature sampling.
func DefaultShotConfig() ShotDetectorConfig {
	return ShotDetectorConfig{Window: 3, Threshold: 0.33, MinShotLen: 5}
}

// ShotDetector finds shot boundaries by comparing each frame's color
// histogram against the running mean of the previous Window frames.
type ShotDetector struct {
	cfg     ShotDetectorConfig
	history []*Histogram
	frameNo int
	lastCut int
	// Boundaries collects the frame indices at which new shots begin.
	Boundaries []int
	// Diffs records the histogram distance per frame (diagnostics).
	Diffs []float64
}

// NewShotDetector returns a detector with the given configuration.
func NewShotDetector(cfg ShotDetectorConfig) *ShotDetector {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultShotConfig().Threshold
	}
	return &ShotDetector{cfg: cfg, lastCut: -1 << 30}
}

// Feed processes the next frame, given as its ColorHistogram, and
// reports whether a shot boundary begins at it. The detector keeps h
// as context for the next Window frames.
func (d *ShotDetector) Feed(h *Histogram) bool {
	cut := false
	if len(d.history) > 0 {
		var mean Histogram
		for _, past := range d.history {
			for i := range mean {
				mean[i] += past[i]
			}
		}
		inv := 1 / float64(len(d.history))
		for i := range mean {
			mean[i] *= inv
		}
		diff := h.Diff(&mean)
		d.Diffs = append(d.Diffs, diff)
		if diff > d.cfg.Threshold && d.frameNo-d.lastCut >= d.cfg.MinShotLen {
			d.Boundaries = append(d.Boundaries, d.frameNo)
			d.lastCut = d.frameNo
			cut = true
			d.history = d.history[:0] // restart context in the new shot
		}
	} else {
		d.Diffs = append(d.Diffs, 0)
	}
	if len(d.history) == d.cfg.Window {
		// Shift in place: re-slicing from the front would shrink the
		// capacity and reallocate every few frames.
		d.history = d.history[:copy(d.history, d.history[1:])]
	}
	d.history = append(d.history, h)
	d.frameNo++
	return cut
}

// Shots converts the boundary list into [start, end) frame intervals
// over a sequence of total frames.
func (d *ShotDetector) Shots(total int) [][2]int {
	var shots [][2]int
	prev := 0
	for _, b := range d.Boundaries {
		if b > prev {
			shots = append(shots, [2]int{prev, b})
		}
		prev = b
	}
	if total > prev {
		shots = append(shots, [2]int{prev, total})
	}
	return shots
}
