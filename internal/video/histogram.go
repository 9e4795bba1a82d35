package video

import "math"

// histBins is the per-channel bin count of the color histogram.
const histBins = 8

// Histogram is a normalized RGB color histogram with 8 bins per
// channel (512 cells).
type Histogram [histBins * histBins * histBins]float64

// ColorHistogram computes the frame's normalized color histogram.
func ColorHistogram(f *Frame) *Histogram {
	var h Histogram
	n := f.W * f.H
	for i := 0; i < len(f.Pix); i += 3 {
		r := int(f.Pix[i]) * histBins / 256
		g := int(f.Pix[i+1]) * histBins / 256
		b := int(f.Pix[i+2]) * histBins / 256
		h[(r*histBins+g)*histBins+b]++
	}
	inv := 1 / float64(n)
	for i := range h {
		h[i] *= inv
	}
	return &h
}

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
