// Package video implements the paper's visual analysis (§5.3): frame
// representation, color histograms, multi-frame histogram shot
// detection, motion estimation (pixel color difference and block
// motion histograms), the red-rectangle semaphore detector for race
// starts, sand/dust color filtering for fly-outs, and DVE (digital
// video effect) detection for replay scenes.
package video

import "fmt"

// Frame is an interleaved 8-bit RGB image, quarter-PAL sized in the
// paper (384x288).
type Frame struct {
	W, H int
	Pix  []byte // len = W*H*3, row-major RGB
}

// NewFrame allocates a black frame of the given dimensions.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("video: invalid frame size %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]byte, w*h*3)}
}

// At returns the pixel at (x, y).
func (f *Frame) At(x, y int) (r, g, b byte) {
	i := (y*f.W + x) * 3
	return f.Pix[i], f.Pix[i+1], f.Pix[i+2]
}

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, r, g, b byte) {
	i := (y*f.W + x) * 3
	f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
}

// Fill sets every pixel to the given color.
func (f *Frame) Fill(r, g, b byte) {
	fillPattern(f.Pix, r, g, b)
}

// FillRect fills the axis-aligned rectangle [x0,x1)x[y0,y1), clipped to
// the frame: its first row is patterned, the others are copies of it.
func (f *Frame) FillRect(x0, y0, x1, y1 int, r, g, b byte) {
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, f.W), min(y1, f.H)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	stride := 3 * f.W
	first := f.Pix[y0*stride+3*x0 : y0*stride+3*x1]
	fillPattern(first, r, g, b)
	for y := y0 + 1; y < y1; y++ {
		copy(f.Pix[y*stride+3*x0:], first)
	}
}

// fillPattern writes the pixel (r, g, b) over pix, a whole number of
// pixels, doubling the filled prefix with each copy.
func fillPattern(pix []byte, r, g, b byte) {
	if len(pix) < 3 {
		return
	}
	pix[0], pix[1], pix[2] = r, g, b
	for n := 3; n < len(pix); n *= 2 {
		copy(pix[n:], pix[:n])
	}
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	out := NewFrame(f.W, f.H)
	copy(out.Pix, f.Pix)
	return out
}

// Gray is an 8-bit grayscale image.
type Gray struct {
	W, H int
	Pix  []byte
}

// ToGray converts the frame to grayscale using the Rec.601 luma
// weights.
func (f *Frame) ToGray() *Gray {
	g := &Gray{W: f.W, H: f.H, Pix: make([]byte, f.W*f.H)}
	for i, j := 0, 0; i < len(f.Pix); i, j = i+3, j+1 {
		r, gg, b := int(f.Pix[i]), int(f.Pix[i+1]), int(f.Pix[i+2])
		g.Pix[j] = byte((299*r + 587*gg + 114*b) / 1000)
	}
	return g
}

// Downsample returns the image reduced by the integer factor using box
// averaging.
func (g *Gray) Downsample(factor int) *Gray {
	if factor <= 1 {
		return g
	}
	w, h := g.W/factor, g.H/factor
	out := &Gray{W: w, H: h, Pix: make([]byte, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum, n := 0, 0
			for dy := 0; dy < factor; dy++ {
				for dx := 0; dx < factor; dx++ {
					sum += int(g.Pix[(y*factor+dy)*g.W+(x*factor+dx)])
					n++
				}
			}
			out.Pix[y*w+x] = byte(sum / n)
		}
	}
	return out
}

// At returns the gray value at (x, y).
func (g *Gray) At(x, y int) byte { return g.Pix[y*g.W+x] }
