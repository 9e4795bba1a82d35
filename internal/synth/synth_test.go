package synth

import (
	"bytes"
	"testing"

	"cobra/internal/audio"
	"cobra/internal/video"
	"cobra/internal/vtext"
)

func testRace(t *testing.T) *Race {
	t.Helper()
	return GenerateRace(GermanGP, 300, 42)
}

func TestGenerateRaceDeterministic(t *testing.T) {
	a := GenerateRace(GermanGP, 300, 42)
	b := GenerateRace(GermanGP, 300, 42)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	c := GenerateRace(GermanGP, 300, 43)
	same := len(a.Events) == len(c.Events)
	if same {
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical timelines")
	}
}

func TestTimelineStructure(t *testing.T) {
	r := testRace(t)
	if len(r.EventsOf(EventStart)) != 1 {
		t.Fatalf("starts = %d", len(r.EventsOf(EventStart)))
	}
	if len(r.EventsOf(EventFinish)) != 1 {
		t.Fatal("no finish")
	}
	if len(r.EventsOf(EventPassing)) == 0 || len(r.EventsOf(EventFlyOut)) == 0 ||
		len(r.EventsOf(EventPitStop)) == 0 {
		t.Fatalf("missing event classes: %+v", r.Events)
	}
	for _, e := range r.Events {
		if e.Start < 0 || e.End > r.Duration+1 || e.End <= e.Start {
			t.Fatalf("bad event window %+v", e)
		}
	}
	// Non-replay events do not overlap each other.
	var prevEnd float64
	for _, e := range r.Events {
		if e.Type == EventReplay {
			continue
		}
		if e.Start < prevEnd-1e-9 {
			t.Fatalf("overlapping events at %v", e.Start)
		}
		prevEnd = e.End
	}
}

func TestUSAGPHasNoFlyOuts(t *testing.T) {
	r := GenerateRace(USAGP, 300, 7)
	if n := len(r.EventsOf(EventFlyOut)); n != 0 {
		t.Fatalf("USA GP has %d fly-outs, want 0 (footnote 3)", n)
	}
}

func TestCommentaryGroundTruth(t *testing.T) {
	r := testRace(t)
	if len(r.Utterances) < 100 {
		t.Fatalf("utterances = %d", len(r.Utterances))
	}
	if len(r.Excitement) < 3 {
		t.Fatalf("excitement segments = %d", len(r.Excitement))
	}
	// Excitement covers roughly the profile's share of highlights, so
	// the audio-only recall ceiling (~50-60%) is built in.
	excited := 0
	for _, h := range r.Highlights {
		if h.Label == string(EventReplay) {
			continue
		}
		mid := (h.Start + h.End) / 2
		if r.excitedAt(mid) {
			excited++
		}
	}
	nonReplay := 0
	for _, h := range r.Highlights {
		if h.Label != string(EventReplay) {
			nonReplay++
		}
	}
	frac := float64(excited) / float64(nonReplay)
	if frac < 0.3 || frac > 0.95 {
		t.Fatalf("excited fraction = %v, want a meaningful partial cover", frac)
	}
}

func TestShotBoundariesSpaced(t *testing.T) {
	r := testRace(t)
	if len(r.ShotBoundaries) < 15 {
		t.Fatalf("shots = %d", len(r.ShotBoundaries))
	}
	for i := 1; i < len(r.ShotBoundaries); i++ {
		if r.ShotBoundaries[i]-r.ShotBoundaries[i-1] < 1 {
			t.Fatal("shot boundaries too close")
		}
	}
}

func TestRenderAudioProperties(t *testing.T) {
	r := GenerateRace(GermanGP, 30, 42)
	pcm := renderSpans(t, r, []int{2200})
	if len(pcm) != 30*SampleRate {
		t.Fatalf("samples = %d", len(pcm))
	}
	peak := 0.0
	for _, v := range pcm {
		if v > peak {
			peak = v
		}
		if v < -peak {
			peak = -v
		}
	}
	if peak == 0 {
		t.Fatal("silent render")
	}
	if peak > 1.5 {
		t.Fatalf("peak = %v, clipping badly", peak)
	}
}

// TestAudioExcitementDetectable runs the real audio analyzer over
// rendered audio and checks pitch/energy rise during excitement.
func TestAudioExcitementDetectable(t *testing.T) {
	r := GenerateRace(GermanGP, 120, 42)
	if len(r.Excitement) == 0 {
		t.Skip("no excitement in this seed")
	}
	an, err := audio.NewAnalyzer(audio.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clips := an.Analyze(renderSpans(t, r, []int{2200}))
	var exPitch, calmPitch, exN, calmN float64
	for _, c := range clips {
		// As in the paper, excited-speech statistics are computed only
		// on clips the endpoint detector marks as speech.
		if c.PitchAvg == 0 || !c.Speech {
			continue
		}
		if r.excitedAt(c.Time) {
			exPitch += c.PitchAvg
			exN++
		} else {
			calmPitch += c.PitchAvg
			calmN++
		}
	}
	if exN == 0 || calmN == 0 {
		t.Fatalf("no voiced clips: excited %v calm %v", exN, calmN)
	}
	if exPitch/exN <= calmPitch/calmN*1.2 {
		t.Fatalf("excited pitch %v not clearly above calm %v", exPitch/exN, calmPitch/calmN)
	}
}

func TestRenderFrameBasics(t *testing.T) {
	r := testRace(t)
	f := r.RenderFrame(50)
	if f.W != FrameW || f.H != FrameH {
		t.Fatalf("frame dims %dx%d", f.W, f.H)
	}
	// Deterministic rendering.
	g := r.RenderFrame(50)
	for i := range f.Pix {
		if f.Pix[i] != g.Pix[i] {
			t.Fatal("frame render not deterministic")
		}
	}
}

func TestSemaphoreVisibleDuringStart(t *testing.T) {
	r := testRace(t)
	start := r.EventsOf(EventStart)[0]
	found := false
	for dt := 1.0; dt < 6; dt += 0.5 {
		f := r.RenderFrame(start.Start + dt)
		if video.DetectSemaphore(f).Present {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("semaphore never detected during the start sequence")
	}
	// Gone after lights out.
	f := r.RenderFrame(start.Start + 8.5)
	if video.DetectSemaphore(f).Present {
		t.Fatal("semaphore still present after lights out")
	}
}

func TestFlyOutDustDetectable(t *testing.T) {
	r := testRace(t)
	flyouts := r.EventsOf(EventFlyOut)
	if len(flyouts) == 0 {
		t.Skip("no fly-outs in this seed")
	}
	e := flyouts[0]
	mid := (e.Start + e.End) / 2
	p := video.FlyOutProbability(video.DetectSandDust(r.RenderFrame(mid)))
	if p < 0.3 {
		t.Fatalf("fly-out probability mid-event = %v", p)
	}
	calm := e.Start - 15
	pCalm := video.FlyOutProbability(video.DetectSandDust(r.RenderFrame(calm)))
	if pCalm > p/2 {
		t.Fatalf("calm fly-out probability %v too close to event %v", pCalm, p)
	}
}

func TestCaptionRecognizableOnRenderedFrames(t *testing.T) {
	r := testRace(t)
	pits := r.EventsOf(EventPitStop)
	if len(pits) == 0 {
		t.Skip("no pit stops")
	}
	var cap *Caption
	for i := range r.Captions {
		if len(r.Captions[i].Words) == 2 && r.Captions[i].Words[1] == "PIT" {
			cap = &r.Captions[i]
			break
		}
	}
	if cap == nil {
		t.Fatal("no pit caption generated")
	}
	mid := (cap.Start + cap.End) / 2
	var frames []*video.Frame
	for k := 0; k < 5; k++ {
		frames = append(frames, r.RenderFrame(mid+float64(k)/FPS))
	}
	if !vtext.AnalyzeBand(frames[0]).Present {
		t.Fatal("caption band not detected on rendered frame")
	}
	g := vtext.MinFilterBand(frames)
	g = vtext.Interpolate4x(g)
	band := vtext.Binarize(g, 170)
	lex := append(append([]string(nil), Drivers...), "PIT", "STOP", "LAP", "WINNER", "1")
	rec := vtext.NewRecognizer(lex, 0.7)
	hits := rec.RecognizeBand(band)
	foundDriver, foundPit := false, false
	for _, h := range hits {
		if h.Word == cap.Words[0] {
			foundDriver = true
		}
		if h.Word == "PIT" {
			foundPit = true
		}
	}
	if !foundDriver || !foundPit {
		t.Fatalf("caption %v recognized as %v", cap.Words, hits)
	}
}

func TestMotionHigherAfterStart(t *testing.T) {
	r := testRace(t)
	start := r.EventsOf(EventStart)[0]
	motionAt := func(t0 float64) float64 {
		a := r.RenderFrame(t0)
		b := r.RenderFrame(t0 + 1.0/FPS)
		return video.MotionAmount(a, b)
	}
	before := motionAt(start.Start - 12)
	_ = before
	after := motionAt(start.Start + 30)
	if after <= 0 {
		t.Fatalf("no motion after start: %v", after)
	}
}

func TestCameraShakeDiffersByProfile(t *testing.T) {
	german := GenerateRace(GermanGP, 120, 5)
	belgian := GenerateRace(BelgianGP, 120, 5)
	shakeOf := func(r *Race) float64 {
		total := 0.0
		n := 0
		for ts := 60.0; ts < 70; ts += 0.1 {
			a := r.RenderFrame(ts)
			b := r.RenderFrame(ts + 1.0/FPS)
			total += video.MotionAmount(a, b)
			n++
		}
		return total / float64(n)
	}
	if shakeOf(belgian) <= shakeOf(german) {
		t.Fatalf("belgian camera work %v not rougher than german %v",
			shakeOf(belgian), shakeOf(german))
	}
}

// TestRenderFrameIntoOverwrites renders into one recycled frame, first
// filled with noise, at live, replay-wipe and caption times: every
// render must equal a fresh RenderFrame.
func TestRenderFrameIntoOverwrites(t *testing.T) {
	r := GenerateRace(GermanGP, 300, 42)
	times := []float64{1, 1.1, 57.3}
	for _, e := range r.Events {
		if e.Type == EventReplay {
			times = append(times, e.Start+dveDur/2, (e.Start+e.End)/2, e.End-dveDur/2)
			break
		}
	}
	if len(r.Captions) > 0 {
		times = append(times, (r.Captions[0].Start+r.Captions[0].End)/2)
	}
	if len(times) != 7 {
		t.Fatal("race has no replay or no caption")
	}
	f := video.NewFrame(FrameW, FrameH)
	for i := range f.Pix {
		f.Pix[i] = byte(i * 131)
	}
	for _, tm := range times {
		r.RenderFrameInto(f, tm)
		if !bytes.Equal(f.Pix, r.RenderFrame(tm).Pix) {
			t.Fatalf("t %g: the recycled frame differs from a fresh one", tm)
		}
	}
}
