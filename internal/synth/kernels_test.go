package synth

import (
	"bytes"
	"math"
	"testing"

	"cobra/internal/video"
)

// The rewritten renderers must equal these direct loops bit for bit.

func naiveAddPixelNoise(r *Race, f *video.Frame, t float64) {
	frameNo := int64(t * FPS)
	state := uint64(r.Seed+frameNo) * 0x9e3779b97f4a7c15
	for i := range f.Pix {
		state = state*2862933555777941757 + 3037000493
		d := int(state>>60) - 8 // [-8, 7]
		v := int(f.Pix[i]) + d/2
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		f.Pix[i] = byte(v)
	}
}

func naiveSmoothNoise(seed int64, t, rate float64) float64 {
	x := t * rate
	i := math.Floor(x)
	f := x - i
	a := hash01(seed, int64(i))
	b := hash01(seed, int64(i)+1)
	w := (1 - math.Cos(math.Pi*f)) / 2
	return a*(1-w) + b*w
}

func naiveRenderEngine(r *Race, out []float64) {
	phases := [3]float64{}
	freqs := [3]float64{engineCenterHz * 0.8, engineCenterHz, engineCenterHz * 1.3}
	for i := range out {
		t := float64(i) / SampleRate
		amp := 0.04 + 0.05*naiveSmoothNoise(r.Seed+1, t, 0.4)
		if e, ok := r.eventAt(t); ok && (e.Type == EventPassing || e.Type == EventStart) {
			amp *= 1.8
		}
		v := 0.0
		for k := range freqs {
			f := freqs[k] * (1 + 0.04*naiveSmoothNoise(r.Seed+2+int64(k), t, 1.5))
			phases[k] += 2 * math.Pi * f / SampleRate
			v += math.Sin(phases[k])
		}
		out[i] += amp * v / 3
	}
}

func TestPixelNoiseMatchesSerial(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		r := &Race{Seed: seed}
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 331} {
			got := &video.Frame{W: 1, H: n, Pix: make([]byte, n)}
			for i := range got.Pix {
				got.Pix[i] = byte(i * 97) // 0 and 255 included: both saturate
			}
			got.Pix[0], got.Pix[n-1] = 255, 0
			want := &video.Frame{W: 1, H: n, Pix: bytes.Clone(got.Pix)}
			for _, tm := range []float64{0, 3.7, 120} {
				r.addPixelNoise(got, tm)
				naiveAddPixelNoise(r, want, tm)
				if !bytes.Equal(got.Pix, want.Pix) {
					t.Fatalf("seed %d, %d bytes, t %g: %v, want %v", seed, n, tm, got.Pix, want.Pix)
				}
			}
		}
	}
}

func TestSmoothNoiseTrackMatchesDirect(t *testing.T) {
	n := noiseTrack{seed: 5, rate: 1.5}
	for i := 0; i < 50_000; i++ {
		tm := float64(i) / 997
		if got, want := n.at(tm), naiveSmoothNoise(5, tm, 1.5); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("t %g: %v, want %v", tm, got, want)
		}
	}
}

// engineRaces are races whose events overlap, start at t = 0, share a
// start time or are out of Start order, plus a generated one.
func engineRaces() []*Race {
	ev := func(typ EventType, start, end float64) TrueEvent {
		return TrueEvent{Type: typ, Start: start, End: end}
	}
	return []*Race{
		{Seed: 3, Duration: 6, Events: []TrueEvent{
			ev(EventPassing, 0, 1.5), ev(EventReplay, 0.5, 2), ev(EventFlyOut, 1, 3),
			ev(EventStart, 1.2, 2.5), ev(EventPitStop, 2.5, 2.5), ev(EventPassing, 2.9, 4),
			ev(EventFinish, 3, 5), ev(EventStart, 3, 3.5),
		}},
		{Seed: 4, Duration: 5, Events: []TrueEvent{
			ev(EventFinish, 0, 4), ev(EventStart, 0, 1), ev(EventPassing, 1, 2),
		}},
		// Not in Start order: the first covering event in Events order
		// still wins.
		{Seed: 5, Duration: 5, Events: []TrueEvent{
			ev(EventPitStop, 2, 4), ev(EventPassing, 0, 3), ev(EventStart, 3.5, 4.5),
		}},
		{Seed: 6, Duration: 3},
		GenerateRace(GermanGP, 60, 9),
	}
}

func TestEventCursorMatchesEventAt(t *testing.T) {
	for ri, r := range engineRaces() {
		c := r.eventCursor()
		for i := 0; i <= int(r.Duration*100); i++ {
			tm := float64(i) / 100
			ge, gok := c.at(tm)
			we, wok := r.eventAt(tm)
			if ge != we || gok != wok {
				t.Fatalf("race %d t %g: %+v %v, want %+v %v", ri, tm, ge, gok, we, wok)
			}
		}
	}
}

func TestRenderEngineMatchesNaive(t *testing.T) {
	for ri, r := range engineRaces() {
		n := int(min(r.Duration, 6) * SampleRate)
		got, want := make([]float64, n), make([]float64, n)
		r.renderEngine(got)
		naiveRenderEngine(r, want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("race %d sample %d: %v, want %v", ri, i, got[i], want[i])
			}
		}
	}
}

func naiveWipe(dst, a, b *video.Frame, p float64) {
	split := int(p * float64(dst.W))
	for y := 0; y < dst.H; y++ {
		for x := 0; x < dst.W; x++ {
			var rr, gg, bb byte
			if x < split {
				rr, gg, bb = b.At(x, y)
			} else {
				rr, gg, bb = a.At(x, y)
			}
			dst.Set(x, y, rr, gg, bb)
		}
	}
}

func TestWipeMatchesNaive(t *testing.T) {
	r := GenerateRace(GermanGP, 60, 2)
	fa, fb := r.RenderFrame(10), r.RenderFrame(20)
	for _, p := range []float64{-0.2, 0, 0.001, 0.37, 0.999, 1, 1.3} {
		for alias := 0; alias < 3; alias++ {
			a, b := fa.Clone(), fb.Clone()
			wa, wb := fa.Clone(), fb.Clone()
			dst, wdst := video.NewFrame(FrameW, FrameH), video.NewFrame(FrameW, FrameH)
			switch alias {
			case 1:
				dst, wdst = a, wa
			case 2:
				dst, wdst = b, wb
			}
			wipe(dst, a, b, p)
			naiveWipe(wdst, wa, wb, p)
			if !bytes.Equal(dst.Pix, wdst.Pix) {
				t.Fatalf("p %g alias %d: wipe differs", p, alias)
			}
		}
	}
}

// Benchmark results are kept alive here.
var (
	benchFrame *video.Frame
	benchPCM   []float64
)

// BenchmarkRenderFrame renders one broadcast frame of a live shot.
func BenchmarkRenderFrame(b *testing.B) {
	r := GenerateRace(GermanGP, 120, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFrame = r.RenderFrame(float64(i%1000) / FPS)
	}
}

// BenchmarkRenderAudio10s renders the audio mix of a 10 s race.
func BenchmarkRenderAudio10s(b *testing.B) {
	r := GenerateRace(GermanGP, 10, 42)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPCM = r.RenderAudio()
	}
}
