package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The rewritten kernels must equal these direct loops bit for bit.

func naiveAutocorrelation(x []float64, maxLag int) []float64 {
	if maxLag >= len(x) {
		maxLag = len(x) - 1
	}
	if maxLag < 0 {
		return nil
	}
	out := make([]float64, maxLag+1)
	for lag := 0; lag <= maxLag; lag++ {
		s := 0.0
		for i := 0; i+lag < len(x); i++ {
			s += x[i] * x[i+lag]
		}
		out[lag] = s / float64(len(x))
	}
	return out
}

func naiveMelApply(fb *MelFilterbank, nBins int, power []float64) []float64 {
	out := make([]float64, len(fb.filters))
	for f, flt := range fb.filters {
		w := make([]float64, nBins) // the untrimmed triangle
		copy(w[flt.lo:], flt.w)
		s := 0.0
		for b := 0; b < min(len(power), len(w)); b++ {
			s += w[b] * power[b]
		}
		out[f] = math.Log(s + 1e-12)
	}
	return out
}

func naiveDCTII(x []float64, nCoeffs int) []float64 {
	n := len(x)
	if nCoeffs > n {
		nCoeffs = n
	}
	out := make([]float64, nCoeffs)
	for k := 0; k < nCoeffs; k++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		out[k] = s
	}
	return out
}

// naiveFFT is the block-major radix-2 loop: the twiddle recurrence
// restarts in every block.
func naiveFFT(re, im []float64) {
	n := len(re)
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
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for i := 0; i < n; i += length {
			cRe, cIm := 1.0, 0.0
			for j := 0; j < length/2; j++ {
				uRe, uIm := re[i+j], im[i+j]
				vRe := re[i+j+length/2]*cRe - im[i+j+length/2]*cIm
				vIm := re[i+j+length/2]*cIm + im[i+j+length/2]*cRe
				re[i+j], im[i+j] = uRe+vRe, uIm+vIm
				re[i+j+length/2], im[i+j+length/2] = uRe-vRe, uIm-vIm
				cRe, cIm = cRe*wRe-cIm*wIm, cRe*wIm+cIm*wRe
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func randomSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Exp(rng.Float64()*8-4)
	}
	return x
}

func TestAutocorrelationMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 7, 8, 9, 15, 16, 17, 64, 441} {
		x := randomSignal(rng, n)
		for _, maxLag := range []int{0, 1, 6, 7, 8, 9, n / 2, n - 2, n - 1, n, n + 5} {
			if maxLag < 0 {
				continue
			}
			want := naiveAutocorrelation(x, maxLag)
			if got := Autocorrelation(x, maxLag); !sameBits(got, want) {
				t.Fatalf("len %d maxLag %d: %v, want %v", n, maxLag, got, want)
			}
			dst := make([]float64, n+1)
			if got := AutocorrelationInto(dst, x, maxLag); !sameBits(got, want) {
				t.Fatalf("Into, len %d maxLag %d: %v, want %v", n, maxLag, got, want)
			}
		}
	}
	if got := AutocorrelationInto(make([]float64, 4), nil, 3); len(got) != 0 {
		t.Fatalf("empty input gave %v", got)
	}
}

func FuzzAutocorrelation(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 8)
	f.Add(make([]byte, 441), 440)
	f.Fuzz(func(t *testing.T, raw []byte, maxLag int) {
		x := make([]float64, len(raw))
		for i, v := range raw {
			x[i] = float64(int8(v)) / 3
		}
		maxLag %= len(x) + 8
		want := naiveAutocorrelation(x, maxLag)
		if got := Autocorrelation(x, maxLag); !sameBits(got, want) {
			t.Fatalf("len %d maxLag %d: %v, want %v", len(x), maxLag, got, want)
		}
	})
}

func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 4, 8, 64, 512} {
		re, im := randomSignal(rng, n), randomSignal(rng, n)
		wantRe, wantIm := append([]float64(nil), re...), append([]float64(nil), im...)
		FFT(re, im)
		naiveFFT(wantRe, wantIm)
		if !sameBits(re, wantRe) || !sameBits(im, wantIm) {
			t.Fatalf("n %d: FFT differs from the block-major loop", n)
		}
	}
}

func TestMelFilterbankMatchesUntrimmed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, nBins := range []int{2, 33, 257} {
		fb, err := NewMelFilterbank(24, nBins, 22050, 0, 882)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{nBins, nBins - 1, nBins / 2, 1, nBins + 3} {
			power := make([]float64, n)
			for i := range power {
				power[i] = rng.Float64() * math.Exp(rng.Float64()*20-10)
			}
			want := naiveMelApply(fb, nBins, power)
			if got := fb.Apply(power); !sameBits(got, want) {
				t.Fatalf("%d bins, %d powers: %v, want %v", nBins, n, got, want)
			}
		}
	}
}

func TestDCTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 24} {
		x := randomSignal(rng, n)
		for _, k := range []int{0, 1, 3, n, n + 2} {
			want := naiveDCTII(x, k)
			if got := DCTII(x, k); !sameBits(got, want) {
				t.Fatalf("n %d k %d: %v, want %v", n, k, got, want)
			}
			d := NewDCT(n, k)
			if got := d.Into(make([]float64, d.Coeffs()), x); !sameBits(got, want) {
				t.Fatalf("NewDCT n %d k %d: %v, want %v", n, k, got, want)
			}
		}
	}
}

// BenchmarkFFT512 times the analysis window's transform.
func BenchmarkFFT512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomSignal(rng, 512)
	re, im := make([]float64, 512), make([]float64, 512)
	for i := 0; i < b.N; i++ {
		copy(re, x)
		clear(im)
		FFT(re, im)
	}
}

// BenchmarkAutocorrelation441 times the pitch estimator's kernel on
// one 20 ms analysis window at 22 050 Hz: 441 samples, lags 0..440.
func BenchmarkAutocorrelation441(b *testing.B) {
	x := randomSignal(rand.New(rand.NewSource(1)), 441)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AutocorrelationInto(dst, x, len(x)-1)
	}
}
