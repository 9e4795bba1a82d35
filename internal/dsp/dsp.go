// Package dsp provides the signal-processing substrate for the
// Formula 1 audio analysis: windows, FFT, band filtering,
// autocorrelation, the mel filterbank and the DCT used by the MFCC
// computation. The paper performs these steps in Matlab; here they are
// implemented from scratch on float64 slices.
package dsp

import (
	"fmt"
	"math"
)

// HammingWindow returns the n-point Hamming window, the STE window the
// paper selects for speech endpoint detection (§5.2).
func HammingWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}

// HannWindow returns the n-point Hann window.
func HannWindow(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// RectangularWindow returns the n-point all-ones window.
func RectangularWindow(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// ApplyWindow multiplies x by window w element-wise into a new slice.
// The slices must have equal length.
func ApplyWindow(x, w []float64) []float64 {
	if len(x) != len(w) {
		panic(fmt.Sprintf("dsp: window length %d != frame length %d", len(w), len(x)))
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] * w[i]
	}
	return out
}

// Energy returns the mean squared amplitude of x, the short-time
// energy of one frame.
func Energy(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s / float64(len(x))
}

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of the complex signal (re, im). len(re) must equal
// len(im) and be a power of two.
func FFT(re, im []float64) {
	n := len(re)
	if n != len(im) {
		panic("dsp: FFT length mismatch")
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("dsp: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	// Within a stage the j-th butterfly of every block uses the same
	// twiddle, the j-th step of one recurrence: each twiddle is computed
	// once per stage and applied to all blocks.
	for length := 2; length <= n; length <<= 1 {
		half := length / 2
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		cRe, cIm := 1.0, 0.0
		for j := 0; j < half; j++ {
			for i := j; i < n; i += length {
				uRe, uIm := re[i], im[i]
				vRe := re[i+half]*cRe - im[i+half]*cIm
				vIm := re[i+half]*cIm + im[i+half]*cRe
				re[i], im[i] = uRe+vRe, uIm+vIm
				re[i+half], im[i+half] = uRe-vRe, uIm-vIm
			}
			cRe, cIm = cRe*wRe-cIm*wIm, cRe*wIm+cIm*wRe
		}
	}
}

// PowerSpectrum returns the one-sided power spectrum of x, zero-padded
// to the next power of two. The result has nfft/2+1 bins.
func PowerSpectrum(x []float64) []float64 {
	n := nextPow2(len(x))
	re := make([]float64, n)
	im := make([]float64, n)
	copy(re, x)
	FFT(re, im)
	out := make([]float64, n/2+1)
	for i := range out {
		out[i] = (re[i]*re[i] + im[i]*im[i]) / float64(n)
	}
	return out
}

// Autocorrelation returns the biased autocorrelation of x for lags
// 0..maxLag inclusive, the basis of the pitch estimator (§5.2).
func Autocorrelation(x []float64, maxLag int) []float64 {
	if maxLag >= len(x) {
		maxLag = len(x) - 1
	}
	if maxLag < 0 {
		return nil
	}
	return AutocorrelationInto(make([]float64, maxLag+1), x, maxLag)
}

// acLanes is the number of lags AutocorrelationInto accumulates in one
// pass over the window.
const acLanes = 8

// AutocorrelationInto is Autocorrelation written into dst, which must
// hold min(maxLag, len(x)-1)+1 values; it returns that prefix of dst.
//
// Lags are computed acLanes at a time: one pass over x feeds a separate
// accumulator per lag, each summing x[i]·x[i+lag] in increasing i, and
// the lags' unequal tails are finished one by one. Every lag thus adds
// the same products in the same order as the one-lag-per-pass loop, so
// the result is bit-identical to it; the independent accumulators only
// let the additions overlap.
func AutocorrelationInto(dst, x []float64, maxLag int) []float64 {
	n := len(x)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return dst[:0]
	}
	out := dst[:maxLag+1]
	norm := float64(n)
	lag := 0
	for ; lag+acLanes <= maxLag+1; lag += acLanes {
		// Every lane has a product for i < m.
		m := n - lag - (acLanes - 1)
		xs := x[:m]
		y0, y1, y2, y3 := x[lag:][:m], x[lag+1:][:m], x[lag+2:][:m], x[lag+3:][:m]
		y4, y5, y6, y7 := x[lag+4:][:m], x[lag+5:][:m], x[lag+6:][:m], x[lag+7:][:m]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i, xi := range xs {
			s0 += xi * y0[i]
			s1 += xi * y1[i]
			s2 += xi * y2[i]
			s3 += xi * y3[i]
			s4 += xi * y4[i]
			s5 += xi * y5[i]
			s6 += xi * y6[i]
			s7 += xi * y7[i]
		}
		acc := [acLanes]float64{s0, s1, s2, s3, s4, s5, s6, s7}
		for k := range acc {
			s := acc[k]
			for i := m; i+lag+k < n; i++ {
				s += x[i] * x[i+lag+k]
			}
			out[lag+k] = s / norm
		}
	}
	for ; lag <= maxLag; lag++ {
		s := 0.0
		for i := 0; i+lag < n; i++ {
			s += x[i] * x[i+lag]
		}
		out[lag] = s / norm
	}
	return out
}

// BandFilter is a windowed-sinc FIR band-pass filter.
type BandFilter struct {
	taps []float64
}

// NewBandFilter designs an order-tap FIR band-pass for [lo, hi] Hz at
// the given sample rate using a Hamming-windowed sinc. Pass lo = 0 for
// a low-pass design. taps must be odd and >= 3.
func NewBandFilter(sampleRate float64, lo, hi float64, taps int) (*BandFilter, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: tap count %d must be odd and >= 3", taps)
	}
	nyq := sampleRate / 2
	if lo < 0 || hi <= lo || hi > nyq {
		return nil, fmt.Errorf("dsp: invalid band [%g, %g] for sample rate %g", lo, hi, sampleRate)
	}
	fl, fh := lo/sampleRate, hi/sampleRate
	h := make([]float64, taps)
	m := taps / 2
	win := HammingWindow(taps)
	for i := range h {
		k := float64(i - m)
		var v float64
		if i == m {
			v = 2 * (fh - fl)
		} else {
			v = (math.Sin(2*math.Pi*fh*k) - math.Sin(2*math.Pi*fl*k)) / (math.Pi * k)
		}
		h[i] = v * win[i]
	}
	return &BandFilter{taps: h}, nil
}

// Apply convolves the filter with x, returning a same-length output
// (zero-padded edges).
func (f *BandFilter) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	m := len(f.taps) / 2
	for i := range x {
		s := 0.0
		for j, t := range f.taps {
			k := i + j - m
			if k >= 0 && k < len(x) {
				s += t * x[k]
			}
		}
		out[i] = s
	}
	return out
}

// HzToMel converts frequency in Hz to the mel scale.
func HzToMel(hz float64) float64 { return 2595 * math.Log10(1+hz/700) }

// MelToHz converts mel-scale frequency back to Hz.
func MelToHz(mel float64) float64 { return 700 * (math.Pow(10, mel/2595) - 1) }

// MelFilterbank is a bank of triangular filters spaced on the mel
// scale, applied to power spectra.
type MelFilterbank struct {
	filters []melFilter
}

// melFilter is one triangle trimmed to its support: weights w for the
// spectrum bins lo, lo+1, ...; every other bin weighs zero.
type melFilter struct {
	lo int
	w  []float64
}

// NewMelFilterbank builds nFilters triangular filters covering
// [loHz, hiHz] for power spectra with nBins bins at the given sample
// rate.
func NewMelFilterbank(nFilters, nBins int, sampleRate, loHz, hiHz float64) (*MelFilterbank, error) {
	if nFilters < 1 || nBins < 2 {
		return nil, fmt.Errorf("dsp: invalid filterbank dims %d x %d", nFilters, nBins)
	}
	if hiHz <= loHz || hiHz > sampleRate/2 {
		return nil, fmt.Errorf("dsp: invalid mel range [%g, %g]", loHz, hiHz)
	}
	loMel, hiMel := HzToMel(loHz), HzToMel(hiHz)
	centers := make([]float64, nFilters+2)
	for i := range centers {
		mel := loMel + (hiMel-loMel)*float64(i)/float64(nFilters+1)
		centers[i] = MelToHz(mel)
	}
	binHz := sampleRate / 2 / float64(nBins-1)
	fb := &MelFilterbank{filters: make([]melFilter, nFilters)}
	w := make([]float64, nBins)
	for f := range fb.filters {
		clear(w)
		left, center, right := centers[f], centers[f+1], centers[f+2]
		lo, hi := nBins, 0
		for b := 0; b < nBins; b++ {
			hz := float64(b) * binHz
			switch {
			case hz >= left && hz <= center && center > left:
				w[b] = (hz - left) / (center - left)
			case hz > center && hz <= right && right > center:
				w[b] = (right - hz) / (right - center)
			}
			if w[b] != 0 {
				lo, hi = min(lo, b), b+1
			}
		}
		if lo < hi {
			fb.filters[f] = melFilter{lo: lo, w: append([]float64(nil), w[lo:hi]...)}
		}
	}
	return fb, nil
}

// Apply returns the log mel-band energies of the power spectrum.
func (fb *MelFilterbank) Apply(power []float64) []float64 {
	return fb.ApplyInto(make([]float64, len(fb.filters)), power)
}

// ApplyInto is Apply written into dst, which must hold one value per
// filter; it returns that prefix of dst. Each band sums only the bins
// of its filter's support: outside it a finite power p adds 0·p = ±0,
// which leaves the sum unchanged, so skipping those bins changes no
// bit.
func (fb *MelFilterbank) ApplyInto(dst, power []float64) []float64 {
	out := dst[:len(fb.filters)]
	for f, flt := range fb.filters {
		s := 0.0
		if flt.lo < len(power) {
			p := power[flt.lo:min(flt.lo+len(flt.w), len(power))]
			for b, v := range p {
				s += flt.w[b] * v
			}
		}
		out[f] = math.Log(s + 1e-12)
	}
	return out
}

// DCT is a type-II discrete cosine transform of fixed input length
// returning its first coefficients, the final MFCC step. Its cosine
// table is computed once, by the same math.Cos calls a direct
// evaluation makes, so a transform equals DCTII's bit for bit.
type DCT struct {
	n, coeffs int
	cos       []float64 // cos[k*n+i] = cos(π·k·(i+½)/n)
}

// NewDCT builds the transform of n inputs to min(nCoeffs, n)
// coefficients.
func NewDCT(n, nCoeffs int) *DCT {
	nCoeffs = max(0, min(nCoeffs, n))
	d := &DCT{n: n, coeffs: nCoeffs, cos: make([]float64, nCoeffs*n)}
	for k := 0; k < nCoeffs; k++ {
		for i := 0; i < n; i++ {
			d.cos[k*n+i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
	}
	return d
}

// Coeffs returns the number of coefficients the transform computes.
func (d *DCT) Coeffs() int { return d.coeffs }

// Into writes the coefficients of x, which must have the transform's
// input length, into dst and returns them; dst must hold Coeffs values.
func (d *DCT) Into(dst, x []float64) []float64 {
	if len(x) != d.n {
		panic(fmt.Sprintf("dsp: DCT of length %d given %d samples", d.n, len(x)))
	}
	out := dst[:d.coeffs]
	for k := range out {
		row := d.cos[k*d.n : (k+1)*d.n]
		s := 0.0
		for i, v := range x {
			s += v * row[i]
		}
		out[k] = s
	}
	return out
}

// DCTII computes the type-II discrete cosine transform of x, the final
// MFCC step; returns the first nCoeffs coefficients.
func DCTII(x []float64, nCoeffs int) []float64 {
	d := NewDCT(len(x), nCoeffs)
	return d.Into(make([]float64, d.Coeffs()), x)
}

// Mean returns the arithmetic mean of x (0 for empty input).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Max returns the maximum of x (0 for empty input).
func Max(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum of x (0 for empty input).
func Min(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// DynamicRange returns Max(x) - Min(x), the paper's per-clip dynamic
// range statistic.
func DynamicRange(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Max(x) - Min(x)
}
