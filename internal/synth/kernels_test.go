package synth

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"cobra/internal/keyword"
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
		e := newEngine(r)
		for from := 0; from < n; from += 997 {
			e.render(got[from:min(from+997, n)], from)
		}
		naiveRenderEngine(r, want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("race %d sample %d: %v, want %v", ri, i, got[i], want[i])
			}
		}
	}
}

// renderAudioOracle is the whole-race renderer AudioRenderer replaced:
// every utterance in turn over the whole buffer, then the engine, then
// the crowd.
func renderAudioOracle(r *Race) []float64 {
	out := make([]float64, int(r.Duration*SampleRate))
	for ui, u := range r.Utterances {
		phones := keyword.PhoneSequence(u.Word)
		dur := float64(len(phones)) / keyword.PhoneRate
		if dur <= 0 {
			continue
		}
		excited := r.excitedAt(u.Time)
		pitch := basePitchHz * (0.9 + 0.2*hash01(r.Seed, int64(ui)))
		amp := baseAmplitude * (0.75 + 0.5*hash01(r.Seed+11, int64(ui)))
		if excited {
			x := hash01(r.Seed+12, int64(ui))
			pitch *= excitedPitchX * (0.78 + 0.3*x)
			amp *= excitedAmpX * (0.8 + 0.3*x)
		} else if smoothNoise(r.Seed+13, u.Time, 0.06) > 0.78 {
			x := hash01(r.Seed+14, int64(ui))
			pitch *= 1.45 + 0.25*x
			amp *= 1.4 + 0.25*x
		}
		start := int(u.Time * SampleRate)
		length := int(dur * SampleRate)
		phase := 0.0
		for i := 0; i < length; i++ {
			idx := start + i
			if idx < 0 || idx >= len(out) {
				continue
			}
			t := float64(i) / SampleRate
			f := pitch * (1 + 0.05*math.Sin(2*math.Pi*2.5*t+float64(ui)))
			phase += 2 * math.Pi * f / SampleRate
			damp := 0.55
			if excited {
				damp = 0.95
			}
			v := 0.0
			hAmp := 1.0
			for k := 1; k <= 8; k++ {
				v += hAmp * math.Sin(float64(k)*phase)
				hAmp *= damp / (1 + 0.12*float64(k))
			}
			env := 1.0
			edge := 0.02 * SampleRate
			if fi := float64(i); fi < edge {
				env = fi / edge
			} else if rem := float64(length - i); rem < edge {
				env = rem / edge
			}
			out[idx] += amp * env * v / 2.75
		}
	}
	naiveRenderEngine(r, out)
	if level := r.Profile.CrowdNoise; level > 0 {
		state := uint64(r.Seed)*2862933555777941757 + 3037000493
		for i := range out {
			state = state*2862933555777941757 + 3037000493
			noise := float64(int64(state>>11))/(1<<52) - 1
			out[i] += level * noise
		}
	}
	return out
}

// spanRaces are short races of all three profiles whose length is not a
// whole number of clips, with utterances added that straddle the race
// end, start before the race, and overlap each other.
func spanRaces() []*Race {
	var races []*Race
	for i, p := range []Profile{GermanGP, BelgianGP, USAGP} {
		r := GenerateRace(p, 7.77, int64(40+i))
		r.Utterances = append(r.Utterances,
			keyword.SpokenWord{Word: "overtake", Time: r.Duration - 0.1},
			keyword.SpokenWord{Word: "crash", Time: -0.05},
			keyword.SpokenWord{Word: "fantastic", Time: 3.001},
			keyword.SpokenWord{Word: "leader", Time: 3.002},
		)
		races = append(races, r)
	}
	return races
}

// renderSpans renders r through an AudioRenderer cut into spans of the
// given lengths, cycled until the race ends.
func renderSpans(t testing.TB, r *Race, spans []int) []float64 {
	a := NewAudioRenderer(r)
	out := make([]float64, a.Samples()+1)
	pos := 0
	for k := 0; pos < a.Samples(); k++ {
		n := a.Render(out[pos:min(pos+spans[k%len(spans)], len(out))])
		if n == 0 {
			t.Fatalf("span %d rendered nothing at sample %d of %d", k, pos, a.Samples())
		}
		pos += n
	}
	if n := a.Render(out[pos:]); n != 0 {
		t.Fatalf("rendered %d samples past the end", n)
	}
	return out[:pos]
}

func sameSamples(t testing.TB, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("sample %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestAudioRendererMatchesOracle(t *testing.T) {
	for ri, r := range spanRaces() {
		want := renderAudioOracle(r)
		if len(want)%2200 == 0 {
			t.Fatalf("race %d: %d samples, a whole number of clips", ri, len(want))
		}
		// One sample, a prime, one 0.1 s clip, the whole race, and a mix.
		for _, spans := range [][]int{{1}, {7919}, {2200}, {len(want)}, {2421, 1, 3, 5000, 221}} {
			t.Run(fmt.Sprintf("race%d/%v", ri, spans), func(t *testing.T) {
				sameSamples(t, renderSpans(t, r, spans), want)
			})
		}
	}
}

func FuzzAudioRendererSpans(f *testing.F) {
	f.Add([]byte{1}, int64(3))
	f.Add([]byte{200, 0, 17, 255, 3}, int64(-9))
	r0 := GenerateRace(GermanGP, 1.37, 0)
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		if len(raw) == 0 || len(raw) > 64 {
			return
		}
		r := GenerateRace([]Profile{GermanGP, BelgianGP, USAGP}[uint64(seed)%3], r0.Duration, seed)
		// Byte b is a span of b*b+1 samples: 1 to 65 026.
		spans := make([]int, len(raw))
		for i, b := range raw {
			spans[i] = int(b)*int(b) + 1
		}
		sameSamples(t, renderSpans(t, r, spans), renderAudioOracle(r))
	})
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

// BenchmarkRenderAudio10s renders the audio mix of a 10 s race in
// spans of one 0.1 s clip, as extraction does.
func BenchmarkRenderAudio10s(b *testing.B) {
	r := GenerateRace(GermanGP, 10, 42)
	benchPCM = make([]float64, 2200)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAudioRenderer(r)
		for a.Render(benchPCM) > 0 {
		}
	}
}
