package video

import (
	"encoding/binary"
	"math"
)

// MotionAmount returns the mean absolute pixel color difference
// between two frames, normalized to [0, 1]; the paper's start-detection
// motion cue ("pixel color difference between two consecutive frames").
// The integer sum is taken eight bytes per word (absDiff8).
func MotionAmount(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		return 1
	}
	pa, pb := a.Pix, b.Pix[:len(a.Pix)]
	sum, i := 0, 0
	for i+8 <= len(pa) {
		// A 16-bit lane gains at most 2·255 per word, so 128 words
		// cannot overflow it.
		var acc uint64
		for end := min(i+8*128, len(pa)&^7); i < end; i += 8 {
			acc += sumBytePairs(absDiff8(binary.LittleEndian.Uint64(pa[i:]), binary.LittleEndian.Uint64(pb[i:])))
		}
		sum += int(acc&0xffff + acc>>16&0xffff + acc>>32&0xffff + acc>>48)
	}
	for ; i < len(pa); i++ {
		d := int(pa[i]) - int(pb[i])
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return float64(sum) / float64(len(a.Pix)) / 255
}

// SWAR masks: the top bit, and the low seven bits, of every byte; the
// even bytes of every 16-bit lane.
const (
	byteTops  = 0x8080808080808080
	byteLows  = 0x7f7f7f7f7f7f7f7f
	evenBytes = 0x00ff00ff00ff00ff
)

// absDiff8 returns the bytewise |a-b| of the eight bytes packed in two
// words. Each byte's a >= b decides which is the maximum; max - min is
// then non-negative in every byte, so one word subtraction borrows
// nothing across bytes and the differences are exact.
func absDiff8(a, b uint64) uint64 {
	// t's byte k is 0x80 + (a_k & 0x7f) - (b_k & 0x7f), which neither
	// borrows nor carries: its top bit says the low seven bits of a_k
	// are at least b_k's.
	t := (a | byteTops) - (b & byteLows)
	ge := (a&^b | ^(a^b)&t) & byteTops // a_k >= b_k
	m := (ge >> 7) * 0xff
	hi := b ^ (a^b)&m
	return hi - (a ^ b ^ hi)
}

// sumBytePairs adds the odd bytes of d to its even ones, leaving four
// 16-bit lanes of at most 2·255 each.
func sumBytePairs(d uint64) uint64 {
	return d&evenBytes + d>>8&evenBytes
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
	stride := 3 * f.W
	for y := 0; y < h; y++ {
		var rows [motionScale][]byte
		for dy := range rows {
			rows[dy] = f.Pix[(y*motionScale+dy)*stride:][:3*motionScale*w]
		}
		dst := out.Pix[y*w : (y+1)*w]
		for x := range dst {
			var sum uint32
			for _, row := range rows {
				p := row[3*motionScale*x : 3*motionScale*(x+1)]
				for i := 0; i < len(p); i += 3 {
					sum += luma(p[i], p[i+1], p[i+2])
				}
			}
			dst[x] = byte(sum / (motionScale * motionScale))
		}
	}
	return out
}

// luma is ToGray's Rec.601 gray value of one pixel. Unsigned 32-bit
// operands give the same quotient as ToGray's int arithmetic with a
// cheaper division by the constant.
func luma(r, g, b byte) uint32 {
	return (299*uint32(r) + 587*uint32(g) + 114*uint32(b)) / 1000
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
			x0, y0 := xb*motionBlock, yb*motionBlock
			rows := loadBlock(ga, x0, y0)
			zeroSAD := shiftedSAD(&rows, ga, gb, x0, y0, 0, 0)
			bestSAD := zeroSAD
			var best MotionVector
			for dy := -search; dy <= search; dy++ {
				for dx := -search; dx <= search; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					sad := shiftedSAD(&rows, ga, gb, x0, y0, dx, dy)
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

// rowsSAD sums |a-b| between the block rows and the motionBlock rows
// of pix, stride bytes apart, that start at pix[0]. Four 16-bit lanes
// gain at most motionBlock·2·255 each, and their total fits the top
// lane of the final multiply.
func rowsSAD(rows *blockRows, pix []byte, stride int) uint64 {
	var acc uint64
	off := 0
	for _, ra := range rows {
		acc += sumBytePairs(absDiff8(ra, binary.LittleEndian.Uint64(pix[off:])))
		off += stride
	}
	return (acc * 0x0001000100010001) >> 48
}

// blockRows holds a block's rows, one word of motionBlock bytes each.
type blockRows [motionBlock]uint64

// A block row must be exactly one word: this fails to compile otherwise.
var _ = [1]struct{}{}[motionBlock-8]

// loadBlock reads block (x0,y0) of a.
func loadBlock(a *Gray, x0, y0 int) blockRows {
	var rows blockRows
	for y := range rows {
		rows[y] = binary.LittleEndian.Uint64(a.Pix[(y0+y)*a.W+x0:])
	}
	return rows
}

// blockSAD computes the mean absolute difference between block (x0,y0)
// of a and the (dx,dy)-shifted block of b; out-of-bounds shifts cost
// maximum difference.
func blockSAD(a, b *Gray, x0, y0, dx, dy int) float64 {
	rows := loadBlock(a, x0, y0)
	return shiftedSAD(&rows, a, b, x0, y0, dx, dy)
}

// shiftedSAD is blockSAD given the block's rows. A shifted block inside
// b is compared a row word at a time; the sum is an integer either way.
func shiftedSAD(rows *blockRows, a, b *Gray, x0, y0, dx, dy int) float64 {
	if bx0, by0 := x0+dx, y0+dy; bx0 >= 0 && by0 >= 0 && bx0+motionBlock <= b.W && by0+motionBlock <= b.H {
		return float64(rowsSAD(rows, b.Pix[by0*b.W+bx0:], b.W)) / (motionBlock * motionBlock)
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
