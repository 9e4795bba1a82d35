package audio

import (
	"math"
	"math/rand"
	"testing"
)

// synthVoiced generates dur seconds of voiced-speech-like audio: a
// harmonic series at pitch f0 with mild vibrato, band-limited under
// ~900 Hz, at the given amplitude.
func synthVoiced(sr, dur, f0, amp float64, rng *rand.Rand) []float64 {
	n := int(sr * dur)
	out := make([]float64, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		t := float64(i) / sr
		f := f0 * (1 + 0.02*math.Sin(2*math.Pi*3*t))
		phase += 2 * math.Pi * f / sr
		v := math.Sin(phase) + 0.5*math.Sin(2*phase) + 0.25*math.Sin(3*phase)
		out[i] = amp * v / 1.75
	}
	_ = rng
	return out
}

// synthEngine generates car-noise-like audio concentrated above 1 kHz.
func synthEngine(sr, dur, amp float64, rng *rand.Rand) []float64 {
	n := int(sr * dur)
	out := make([]float64, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		phase += 2 * math.Pi * 1500 / sr
		out[i] = amp * (0.7*math.Sin(phase) + 0.3*rng.Float64()*2 - 0.3)
	}
	return out
}

func newTestAnalyzer(t *testing.T) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.SampleRate = 0 },
		func(c *Config) { c.FrameDur = 0 },
		func(c *Config) { c.ClipDur = c.FrameDur / 2 },
		func(c *Config) { c.NumMFCC = 2 },
		func(c *Config) { c.PitchMinHz = 0 },
		func(c *Config) { c.PitchMaxHz = c.PitchMinHz },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := NewAnalyzer(cfg); err == nil {
			t.Errorf("case %d: config should be rejected", i)
		}
	}
}

func TestFrameGeometry(t *testing.T) {
	a := newTestAnalyzer(t)
	if a.FrameLen() != 220 {
		t.Fatalf("FrameLen = %d, want 220", a.FrameLen())
	}
	if a.FramesPerClip() != 10 {
		t.Fatalf("FramesPerClip = %d, want 10", a.FramesPerClip())
	}
}

func TestSilenceDetection(t *testing.T) {
	a := newTestAnalyzer(t)
	silence := make([]float64, 22050) // 1 s of zeros
	frames := a.AnalyzeFrames(silence)
	for i, f := range frames {
		if !f.Silent {
			t.Fatalf("frame %d of silence not marked silent", i)
		}
		if f.Pitch != 0 {
			t.Fatalf("frame %d of silence has pitch %v", i, f.Pitch)
		}
	}
}

func TestPitchEstimation(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(1))
	for _, f0 := range []float64{120, 220, 300} {
		sig := synthVoiced(22050, 0.5, f0, 0.3, rng)
		frames := a.AnalyzeFrames(sig)
		var sum float64
		var n int
		for _, fr := range frames {
			if fr.Pitch > 0 {
				sum += fr.Pitch
				n++
			}
		}
		if n < len(frames)/2 {
			t.Fatalf("f0=%v: only %d/%d voiced frames", f0, n, len(frames))
		}
		est := sum / float64(n)
		if math.Abs(est-f0) > 0.1*f0 {
			t.Fatalf("f0=%v: estimated %v", f0, est)
		}
	}
}

func TestSTEBandSeparation(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(2))
	speech := synthVoiced(22050, 0.5, 150, 0.3, rng)
	engine := synthEngine(22050, 0.5, 0.3, rng)

	sf := a.AnalyzeFrames(speech)
	ef := a.AnalyzeFrames(engine)
	avg := func(fs []FrameFeatures, pick func(FrameFeatures) float64) float64 {
		s := 0.0
		for _, f := range fs {
			s += pick(f)
		}
		return s / float64(len(fs))
	}
	speechLow := avg(sf, func(f FrameFeatures) float64 { return f.STELow })
	speechMid := avg(sf, func(f FrameFeatures) float64 { return f.STEMid })
	engineLow := avg(ef, func(f FrameFeatures) float64 { return f.STELow })
	engineMid := avg(ef, func(f FrameFeatures) float64 { return f.STEMid })
	if speechLow <= speechMid {
		t.Fatalf("voiced speech: low %v should exceed mid %v", speechLow, speechMid)
	}
	if engineMid <= engineLow {
		t.Fatalf("engine: mid %v should exceed low %v", engineMid, engineLow)
	}
}

func TestEndpointDetection(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(3))
	// 1 s speech, 1 s silence-with-faint-engine, 1 s speech.
	var sig []float64
	sig = append(sig, synthVoiced(22050, 1, 160, 0.25, rng)...)
	sig = append(sig, synthEngine(22050, 1, 0.02, rng)...)
	sig = append(sig, synthVoiced(22050, 1, 180, 0.25, rng)...)

	clips := a.Analyze(sig)
	if len(clips) != 30 {
		t.Fatalf("clips = %d, want 30", len(clips))
	}
	counts := [3]int{}
	for i, c := range clips {
		if c.Speech {
			counts[i/10]++
		}
	}
	if counts[0] < 8 || counts[2] < 8 {
		t.Fatalf("speech sections detected %v, want >=8 in sections 0 and 2", counts)
	}
	if counts[1] > 2 {
		t.Fatalf("engine-only section flagged as speech %d times", counts[1])
	}
}

func TestPauseRate(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(4))
	// Alternate 0.05 s speech and 0.05 s silence within each clip.
	var sig []float64
	for i := 0; i < 10; i++ {
		sig = append(sig, synthVoiced(22050, 0.05, 150, 0.3, rng)...)
		sig = append(sig, make([]float64, 22050/20)...)
	}
	clips := a.Analyze(sig)
	for i, c := range clips {
		if c.PauseRate < 0.2 || c.PauseRate > 0.8 {
			t.Fatalf("clip %d pause rate = %v, want ~0.5", i, c.PauseRate)
		}
	}
	// Continuous speech has near-zero pause rate.
	clips = a.Analyze(synthVoiced(22050, 1, 150, 0.3, rng))
	for i, c := range clips {
		if c.PauseRate > 0.1 {
			t.Fatalf("continuous speech clip %d pause rate = %v", i, c.PauseRate)
		}
	}
}

func TestExcitedSpeechStatistics(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(5))
	normal := a.Analyze(synthVoiced(22050, 2, 140, 0.2, rng))
	// Excited speech: raised pitch and raised amplitude.
	excited := a.Analyze(synthVoiced(22050, 2, 240, 0.45, rng))
	avgPitch := func(cs []ClipFeatures) float64 {
		s, n := 0.0, 0
		for _, c := range cs {
			if c.PitchAvg > 0 {
				s += c.PitchAvg
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return s / float64(n)
	}
	if avgPitch(excited) <= avgPitch(normal)*1.3 {
		t.Fatalf("excited pitch %v not clearly above normal %v", avgPitch(excited), avgPitch(normal))
	}
	avgSTE := func(cs []ClipFeatures) float64 {
		s := 0.0
		for _, c := range cs {
			s += c.STEAvg
		}
		return s / float64(len(cs))
	}
	if avgSTE(excited) <= avgSTE(normal) {
		t.Fatalf("excited STE %v not above normal %v", avgSTE(excited), avgSTE(normal))
	}
}

func TestSpeechSegments(t *testing.T) {
	clips := make([]ClipFeatures, 40)
	for i := range clips {
		clips[i].Time = float64(i) * 0.1
	}
	// Speech in clips 5..14 with a 1-clip hole, and a too-short blip at 30.
	for i := 5; i < 15; i++ {
		clips[i].Speech = true
	}
	clips[9].Speech = false
	clips[30].Speech = true

	segs := SpeechSegments(clips, 0.1, 0.3, 0.5)
	if len(segs) != 1 {
		t.Fatalf("segments = %v, want one merged segment", segs)
	}
	if math.Abs(segs[0][0]-0.5) > 1e-9 || math.Abs(segs[0][1]-1.5) > 1e-9 {
		t.Fatalf("segment = %v, want [0.5, 1.5]", segs[0])
	}
}

func TestSpeechSegmentsEmpty(t *testing.T) {
	if segs := SpeechSegments(nil, 0.1, 0.3, 0.5); len(segs) != 0 {
		t.Fatalf("segments of nil = %v", segs)
	}
	clips := make([]ClipFeatures, 10)
	if segs := SpeechSegments(clips, 0.1, 0.3, 0.5); len(segs) != 0 {
		t.Fatalf("segments of all-nonspeech = %v", segs)
	}
}

// benchFrames keeps the benchmark's result alive.
var benchFrames []FrameFeatures

// BenchmarkAnalyzeFrames1s analyzes one second of voiced audio: 100
// frames, each with its spectrum, MFCCs and pitch autocorrelation.
func BenchmarkAnalyzeFrames1s(b *testing.B) {
	a, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	samples := synthVoiced(22050, 1, 160, 0.3, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchFrames = a.AnalyzeFrames(samples)
	}
}

// TestAnalyzeSpanMatchesWholeSignal cuts a signal that is not a whole
// number of clips into spans of one clip, a prime number of clips and
// all clips: every span's clips must equal what the frame-level path
// (pitch on every frame, then Clips) gives for the whole signal: the
// same clip on speech clips, and zero pitch statistics elsewhere.
func TestAnalyzeSpanMatchesWholeSignal(t *testing.T) {
	a := newTestAnalyzer(t)
	rng := rand.New(rand.NewSource(7))
	var sig []float64
	sig = append(sig, synthVoiced(22050, 0.73, 150, 0.3, rng)...)
	sig = append(sig, synthEngine(22050, 0.61, 0.02, rng)...)
	sig = append(sig, make([]float64, 3001)...)
	sig = append(sig, synthVoiced(22050, 0.87, 230, 0.4, rng)...)
	want := a.Clips(a.AnalyzeFrames(sig))
	if len(sig)%a.ClipLen() == 0 || len(want) != a.NumClips(len(sig)) {
		t.Fatalf("%d samples, %d clips: want a partial last clip", len(sig), len(want))
	}
	speech, voiced := 0, 0
	for i, w := range want {
		if !w.Speech {
			w.PitchAvg, w.PitchMax, w.PitchDyn = 0, 0, 0
			want[i] = w
			continue
		}
		speech++
		if w.PitchAvg > 0 {
			voiced++
		}
	}
	if speech == 0 || speech == len(want) || voiced == 0 {
		t.Fatalf("%d speech clips (%d voiced) of %d: want both kinds", speech, voiced, len(want))
	}
	for _, span := range []int{1, 7, len(want)} {
		got := make([]ClipFeatures, len(want))
		for c := 0; c < len(want); c += span {
			n := min(span, len(want)-c)
			from := c * a.ClipLen()
			to := min((c+n)*a.ClipLen()+a.SpanOverlap(), len(sig))
			a.AnalyzeSpan(got[c:c+n], c, sig[from:to])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("span %d, clip %d: %+v, want %+v", span, i, got[i], want[i])
			}
		}
	}
	for i, c := range a.Analyze(sig) {
		if c != want[i] {
			t.Fatalf("Analyze clip %d: %+v, want %+v", i, c, want[i])
		}
	}
}
