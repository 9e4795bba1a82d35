package video

import "math"

// MotionAmount returns the mean absolute pixel color difference
// between two frames, normalized to [0, 1]; the paper's start-detection
// motion cue ("pixel color difference between two consecutive frames").
func MotionAmount(a, b *Frame) float64 {
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

// MotionVector is a block displacement in downsampled pixels.
type MotionVector struct{ DX, DY int }

// MotionField estimates per-block motion between two frames by SAD
// block matching on 4x-downsampled grayscale with a ±search window.
type MotionField struct {
	BlocksX, BlocksY int
	Vectors          []MotionVector
	// SADs holds the per-block residual of the best match (diagnostic
	// for DVE detection: wipes leave high residual bands).
	SADs []float64
	// ZeroSADs holds the per-block zero-shift residual, used by the DVE
	// detector: a wipe front cannot be motion-compensated, so its
	// uncompensated residual stands out.
	ZeroSADs []float64
	// Reliable marks blocks whose best match beats the zero-shift match
	// by a clear margin; textureless blocks produce arbitrary vectors
	// and are treated as static in motion statistics.
	Reliable []bool
}

// motionBlock is the block edge length in downsampled pixels.
const motionBlock = 8

// motionScale is the downsampling factor of the images block matching
// runs on.
const motionScale = 4

// MotionGray converts a frame to the grayscale image EstimateMotion
// matches blocks on: f.ToGray().Downsample(4), computed in one pass
// without the full-size gray image. Each frame needs it once, for the
// pair it ends and the pair it starts.
func MotionGray(f *Frame) *Gray {
	w, h := f.W/motionScale, f.H/motionScale
	out := &Gray{W: w, H: h, Pix: make([]byte, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0
			for dy := 0; dy < motionScale; dy++ {
				row := f.Pix[((y*motionScale+dy)*f.W+x*motionScale)*3:]
				for i := 0; i < 3*motionScale; i += 3 {
					sum += (299*int(row[i]) + 587*int(row[i+1]) + 114*int(row[i+2])) / 1000
				}
			}
			out.Pix[y*w+x] = byte(sum / (motionScale * motionScale))
		}
	}
	return out
}

// EstimateMotion computes the motion field from image ga to image gb,
// both MotionGray conversions of consecutive frames, with the given
// search radius (in downsampled pixels).
func EstimateMotion(ga, gb *Gray, search int) *MotionField {
	bx, by := ga.W/motionBlock, ga.H/motionBlock
	mf := &MotionField{BlocksX: bx, BlocksY: by,
		Vectors:  make([]MotionVector, bx*by),
		SADs:     make([]float64, bx*by),
		ZeroSADs: make([]float64, bx*by),
		Reliable: make([]bool, bx*by)}
	for yb := 0; yb < by; yb++ {
		for xb := 0; xb < bx; xb++ {
			zeroSAD := blockSAD(ga, gb, xb*motionBlock, yb*motionBlock, 0, 0)
			bestSAD := zeroSAD
			var best MotionVector
			for dy := -search; dy <= search; dy++ {
				for dx := -search; dx <= search; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					sad := blockSAD(ga, gb, xb*motionBlock, yb*motionBlock, dx, dy)
					if sad < bestSAD {
						bestSAD = sad
						best = MotionVector{DX: dx, DY: dy}
					}
				}
			}
			i := yb*bx + xb
			mf.Vectors[i] = best
			mf.SADs[i] = bestSAD
			mf.ZeroSADs[i] = zeroSAD
			// A shifted match must beat staying put by both a relative
			// and an absolute margin, otherwise the block is either
			// static or textureless.
			mf.Reliable[i] = best == MotionVector{} ||
				(bestSAD < 0.7*zeroSAD && zeroSAD-bestSAD > 2)
		}
	}
	return mf
}

// blockSAD computes the mean absolute difference between block (x0,y0)
// of a and the (dx,dy)-shifted block of b; out-of-bounds shifts cost
// maximum difference.
func blockSAD(a, b *Gray, x0, y0, dx, dy int) float64 {
	if bx0, by0 := x0+dx, y0+dy; bx0 >= 0 && by0 >= 0 && bx0+motionBlock <= b.W && by0+motionBlock <= b.H {
		// The shifted block lies inside b: compare row slices, with no
		// per-pixel bounds test.
		sum := 0
		for y := 0; y < motionBlock; y++ {
			ra := a.Pix[(y0+y)*a.W+x0:][:motionBlock]
			rb := b.Pix[(by0+y)*b.W+bx0:][:motionBlock]
			for i, p := range ra {
				d := int(p) - int(rb[i])
				if d < 0 {
					d = -d
				}
				sum += d
			}
		}
		return float64(sum) / (motionBlock * motionBlock)
	}
	sum, n := 0, 0
	for y := y0; y < y0+motionBlock; y++ {
		for x := x0; x < x0+motionBlock; x++ {
			bx, by := x+dx, y+dy
			var d int
			if bx < 0 || by < 0 || bx >= b.W || by >= b.H {
				d = 255
			} else {
				d = int(a.Pix[y*a.W+x]) - int(b.Pix[by*b.W+bx])
				if d < 0 {
					d = -d
				}
			}
			sum += d
			n++
		}
	}
	return float64(sum) / float64(n)
}

// MotionHistogramFeature summarizes a motion field for the passing
// detector: the fraction of blocks moving laterally against the
// dominant (camera) motion, and the dispersion of the lateral motion
// histogram.
type MotionHistogramFeature struct {
	// DominantDX is the modal horizontal displacement (camera pan).
	DominantDX int
	// CounterFraction is the fraction of blocks with horizontal motion
	// opposing or clearly exceeding the dominant motion — the signature
	// of one car overtaking another relative to the camera.
	CounterFraction float64
	// Dispersion is the normalized entropy of the horizontal motion
	// histogram.
	Dispersion float64
}

// MotionHistogram computes the passing-detection feature from a motion
// field estimated with the given search radius.
func MotionHistogram(mf *MotionField, search int) MotionHistogramFeature {
	// Unreliable (textureless or static) blocks contribute as static:
	// they cannot oppose the dominant motion, but they anchor the mode.
	bins := make(map[int]int)
	for i, v := range mf.Vectors {
		if mf.Reliable[i] {
			bins[v.DX]++
		} else {
			bins[0]++
		}
	}
	if len(mf.Vectors) == 0 {
		return MotionHistogramFeature{}
	}
	mode, modeCount := 0, -1
	for dx, c := range bins {
		if c > modeCount {
			mode, modeCount = dx, c
		}
	}
	counter := 0
	for i, v := range mf.Vectors {
		if !mf.Reliable[i] {
			continue
		}
		rel := v.DX - mode
		if rel < -1 || rel > 1 {
			counter++
		}
	}
	total := float64(len(mf.Vectors))
	ent := 0.0
	for _, c := range bins {
		p := float64(c) / total
		ent -= p * math.Log2(p)
	}
	maxEnt := math.Log2(float64(2*search + 1))
	if maxEnt <= 0 {
		maxEnt = 1
	}
	return MotionHistogramFeature{
		DominantDX:      mode,
		CounterFraction: float64(counter) / total,
		Dispersion:      ent / maxEnt,
	}
}

// PassingProbability maps the motion histogram feature to the paper's
// "chance of one car passing another" cue. A passing car occupies only
// a few blocks, so the cue saturates at roughly three blocks' worth of
// counter-motion (the fraction is relative to the full block grid).
func PassingProbability(f MotionHistogramFeature) float64 {
	const fullScale = 3.0 / 108 // ~3 blocks of a 12x9 grid
	p := f.CounterFraction / fullScale
	if p > 1 {
		p = 1
	}
	return p
}
