// Package f1 is the Formula 1 case study application (§5): it wires
// the feature extractors to the broadcast simulator, defines the
// paper's Bayesian-network structures (Figs. 7, 8, 10, 11), and drives
// every experiment of §5.5 (Tables 1-4, Fig. 9 and the temporal /
// clustering studies).
package f1

import (
	"math/rand"

	"cobra/internal/audio"
	"cobra/internal/eval"
	"cobra/internal/keyword"
	"cobra/internal/monet"
	"cobra/internal/synth"
	"cobra/internal/video"
	"cobra/internal/vtext"
)

// ClipDur is the evidence sampling period: parameters are calculated
// for each 0.1 s (§5.5).
const ClipDur = 0.1

// Features holds the per-clip feature series f1..f17 of §5.5, each
// normalized to [0, 1], plus the speech mask and recognized captions.
type Features struct {
	Race *synth.Race
	N    int // clips

	Keywords   []float64 // f1
	PauseRate  []float64 // f2
	STEAvg     []float64 // f3
	STEDyn     []float64 // f4
	STEMax     []float64 // f5
	PitchAvg   []float64 // f6
	PitchDyn   []float64 // f7
	PitchMax   []float64 // f8
	MFCCAvg    []float64 // f9
	MFCCMax    []float64 // f10
	PartOfRace []float64 // f11
	Replay     []float64 // f12
	ColorDiff  []float64 // f13
	Semaphore  []float64 // f14
	Dust       []float64 // f15
	Sand       []float64 // f16
	Motion     []float64 // f17
	// Passing is the motion-histogram passing cue feeding the passing
	// sub-network.
	Passing []float64

	// Speech marks clips the endpoint detector classified as speech.
	Speech []bool

	// Captions are the recognized superimposed-text hits with their
	// clip times.
	Captions []CaptionHit

	// ShotBoundaries are detected shot starts in seconds.
	ShotBoundaries []float64
}

// CaptionHit is a recognized caption word at a time.
type CaptionHit struct {
	Word  string
	Time  float64
	Score float64
}

// Options tunes extraction cost.
type Options struct {
	// SkipVideo disables frame rendering and visual features (audio
	// experiments don't need them).
	SkipVideo bool
	// SkipText disables caption recognition.
	SkipText bool
	// Seed drives the simulated acoustic front-end.
	Seed int64
}

// Extract runs the full §5.2-5.4 pipeline over a simulated race. On a
// pool wider than one worker the audio chain runs as a task on the
// shared kernel pool beside the video chain: both only read the race
// (rendering is pure in it) and they fill disjoint fields of the
// result, so the output is the serial one bit for bit.
func Extract(race *synth.Race, opt Options) (*Features, error) {
	n := int(race.Duration / ClipDur)
	f := &Features{Race: race, N: n}
	var audioErr error
	audioChain := func() {
		if audioErr = f.extractAudio(race); audioErr == nil {
			f.extractKeywords(race, opt.Seed)
		}
	}
	pool := monet.DefaultPool()
	batch := pool.Batch()
	if pool.Workers() > 1 {
		batch.Submit(audioChain)
	} else {
		audioChain() // width 1 is the serial case
	}
	f.PartOfRace = make([]float64, n)
	for i := range f.PartOfRace {
		f.PartOfRace[i] = float64(i) / float64(n)
	}
	if !opt.SkipVideo {
		f.extractVideo(race, !opt.SkipText)
	} else {
		for _, p := range []*[]float64{&f.Replay, &f.ColorDiff, &f.Semaphore, &f.Dust, &f.Sand, &f.Motion, &f.Passing} {
			*p = make([]float64, n)
		}
	}
	batch.Wait()
	if audioErr != nil {
		return nil, audioErr
	}
	return f, nil
}

// Normalization scales mapping raw measurements into [0, 1]; values
// are calibrated against the synthesizer's signal levels (the paper's
// Matlab pipeline performed the equivalent scaling before the network).
// Calibrated against the simulator: calm speech sits near zero and
// excited speech lands in the top evidence level.
func normSTE(x float64) float64   { return clamp01(x / 0.003) }
func normPitch(x float64) float64 { return clamp01((x - 170) / 140) }
func normMFCC(x float64) float64  { return clamp01((-120 - x) / 80) }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func (f *Features) extractAudio(race *synth.Race) error {
	an, err := audio.NewAnalyzer(audio.DefaultConfig())
	if err != nil {
		return err
	}
	clips := an.Analyze(race.RenderAudio())
	alloc := func() []float64 { return make([]float64, f.N) }
	f.PauseRate, f.STEAvg, f.STEDyn, f.STEMax = alloc(), alloc(), alloc(), alloc()
	f.PitchAvg, f.PitchDyn, f.PitchMax = alloc(), alloc(), alloc()
	f.MFCCAvg, f.MFCCMax = alloc(), alloc()
	f.Speech = make([]bool, f.N)
	for i := 0; i < f.N && i < len(clips); i++ {
		c := clips[i]
		f.Speech[i] = c.Speech
		if !c.Speech {
			// Excited-speech features are computed on speech segments
			// only (§5.2); non-speech clips carry neutral zeros.
			f.PauseRate[i] = 1
			continue
		}
		f.PauseRate[i] = c.PauseRate
		f.STEAvg[i] = normSTE(c.STEAvg)
		f.STEDyn[i] = normSTE(c.STEDyn * 2)
		f.STEMax[i] = normSTE(c.STEMax)
		f.PitchAvg[i] = normPitch(c.PitchAvg)
		f.PitchDyn[i] = clamp01(c.PitchDyn / 300)
		f.PitchMax[i] = normPitch(c.PitchMax)
		f.MFCCAvg[i] = normMFCC(c.MFCCAvg)
		f.MFCCMax[i] = normMFCC(c.MFCCMax)
	}
	return nil
}

func (f *Features) extractKeywords(race *synth.Race, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ race.Seed))
	spotter, err := keyword.NewSpotter(synth.ExcitedKeywords)
	if err != nil {
		panic(err) // static keyword list is always valid
	}
	// A slightly conservative acceptance threshold keeps random word
	// fragments from spoofing excited keywords.
	spotter.Threshold = 0.55
	stream := keyword.SimulateStream(race.Utterances, keyword.TVNews, rng)
	hits := spotter.Normalize(spotter.Spot(stream))
	f.Keywords = keyword.EvidenceSeries(hits, f.N, ClipDur)
}

// extractVideo renders frames at 10 fps and runs the visual and text
// chains.
func (f *Features) extractVideo(race *synth.Race, withText bool) {
	n := f.N
	f.Replay = make([]float64, n)
	f.ColorDiff = make([]float64, n)
	f.Semaphore = make([]float64, n)
	f.Dust = make([]float64, n)
	f.Sand = make([]float64, n)
	f.Motion = make([]float64, n)
	f.Passing = make([]float64, n)

	shotDet := video.NewShotDetector(video.DefaultShotConfig())
	dveDet := video.NewDVEDetector()
	replayDet := video.NewReplayDetector()
	var semTracker video.SemaphoreTracker
	textDet := vtext.NewDetector(5)
	var rec *vtext.Recognizer
	if withText {
		lex := append(append([]string(nil), synth.Drivers...),
			"PIT", "STOP", "LAP", "WINNER", "FINAL", "1")
		rec = vtext.NewRecognizer(lex, 0.7)
	}

	var prev *video.Frame
	var bandFrames []*video.Frame
	bandStart := 0
	for i := 0; i < n; i++ {
		t := float64(i) * ClipDur
		frame := race.RenderFrame(t)
		shotDet.Feed(frame)

		sem := video.DetectSemaphore(frame)
		semTracker.Feed(sem)
		if sem.Present {
			f.Semaphore[i] = clamp01(sem.Fill)
		}
		sd := video.DetectSandDust(frame)
		f.Sand[i] = clamp01(4 * sd.SandFraction)
		f.Dust[i] = clamp01(6 * sd.DustFraction)

		if prev != nil {
			f.ColorDiff[i] = video.MotionAmount(prev, frame)
			mf := video.EstimateMotion(prev, frame, 3)
			f.Motion[i] = clamp01(f.ColorDiff[i] * 8)
			f.Passing[i] = video.PassingProbability(video.MotionHistogram(mf, 3))
			if dveDet.Feed(mf) {
				replayDet.FeedDVE(i)
			}
		}
		prev = frame

		if withText {
			sr := vtext.AnalyzeBand(frame)
			if sr.Present {
				if len(bandFrames) == 0 {
					bandStart = i
				}
				if len(bandFrames) < 8 {
					bandFrames = append(bandFrames, frame)
				}
			}
			if textDet.Feed(sr) && len(bandFrames) > 0 {
				f.recognizeCaption(rec, bandFrames, bandStart)
				bandFrames = nil
			}
			if !sr.Present {
				bandFrames = nil
			}
		}
	}
	if withText {
		textDet.Flush()
		if len(bandFrames) >= 5 {
			f.recognizeCaption(rec, bandFrames, bandStart)
		}
	}
	// Replay probabilities from paired DVEs.
	f.Replay = video.ReplayProbability(replayDet.Segments, n)
	for _, b := range shotDet.Boundaries {
		f.ShotBoundaries = append(f.ShotBoundaries, float64(b)*ClipDur)
	}
}

func (f *Features) recognizeCaption(rec *vtext.Recognizer, frames []*video.Frame, startClip int) {
	g := vtext.MinFilterBand(frames)
	g = vtext.Interpolate4x(g)
	band := vtext.Binarize(g, 170)
	for _, h := range rec.RecognizeBand(band) {
		f.Captions = append(f.Captions, CaptionHit{
			Word:  h.Word,
			Time:  float64(startClip) * ClipDur,
			Score: h.Score,
		})
	}
}

// AudioExcitementScore aggregates the audio features into a single
// diagnostic series (used for sanity checks and the quickstart
// example): high when loud, high-pitched continuous speech occurs.
func (f *Features) AudioExcitementScore() []float64 {
	out := make([]float64, f.N)
	for i := 0; i < f.N; i++ {
		if !f.Speech[i] {
			continue
		}
		out[i] = clamp01(0.35*f.PitchAvg[i] + 0.3*f.STEAvg[i] + 0.2*(1-f.PauseRate[i]) + 0.15*f.Keywords[i])
	}
	return out
}

// GroundTruthExcitement returns the race's excited-speech segments.
func (f *Features) GroundTruthExcitement() []eval.Segment { return f.Race.Excitement }

// GroundTruthHighlights returns the race's interesting segments.
func (f *Features) GroundTruthHighlights() []eval.Segment { return f.Race.Highlights }

// Quantize3 maps a [0,1] series to 3 evidence levels with the fixed
// thresholds used by all networks.
func Quantize3(series []float64) []int {
	out := make([]int, len(series))
	for i, v := range series {
		switch {
		case v < 0.22:
			out[i] = 0
		case v < 0.55:
			out[i] = 1
		default:
			out[i] = 2
		}
	}
	return out
}
