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

// videoChunk is the number of consecutive clips one pool task maps. It
// is a constant, so the chunk seams, and with them the frames rendered
// twice, do not depend on the pool width.
const videoChunk = 32

// frameSummary is what the map keeps of one clip: every pure per-frame
// measurement and, for clip i > 0, the measurements of the pair
// (i-1, i). It holds no pixels.
type frameSummary struct {
	hist      *video.Histogram
	sem       video.SemaphoreFeature
	sandDust  video.SandDustFeature
	band      vtext.ShadedRegion
	motion    *video.MotionField // nil for clip 0
	colorDiff float64
	passing   float64
}

// mapClips fills out[j] with the summary of clip from+j. Rendering is
// pure in the race, so a chunk re-renders the frame before it for its
// first pair instead of waiting for the neighbouring chunk, and at most
// two frames of a chunk are alive at once.
func mapClips(race *synth.Race, from int, out []frameSummary, withText bool) {
	var prev *video.Frame
	var prevGray *video.Gray
	if from > 0 {
		prev = race.RenderFrame(float64(from-1) * ClipDur)
		prevGray = video.MotionGray(prev)
	}
	for j := range out {
		frame := race.RenderFrame(float64(from+j) * ClipDur)
		gray := video.MotionGray(frame)
		s := &out[j]
		s.hist = video.ColorHistogram(frame)
		s.sem = video.DetectSemaphore(frame)
		s.sandDust = video.DetectSandDust(frame)
		if withText {
			s.band = vtext.AnalyzeBand(frame)
		}
		if prev != nil {
			s.colorDiff = video.MotionAmount(prev, frame)
			s.motion = video.EstimateMotion(prevGray, gray, 3)
			s.passing = video.PassingProbability(video.MotionHistogram(s.motion, 3))
		}
		prev, prevGray = frame, gray
	}
}

// videoFold is the stateful half of the visual and text chains: the
// detectors that must see the clips in order.
type videoFold struct {
	f         *Features
	race      *synth.Race
	shots     *video.ShotDetector
	sem       video.SemaphoreTracker
	dve       *video.DVEDetector
	replay    *video.ReplayDetector
	text      *vtext.Detector
	rec       *vtext.Recognizer // nil without the text chain
	bandStart int               // first clip of the current caption band
	bandLen   int               // its clips kept for recognition, at most 8
}

// feed folds the summaries of clips from, from+1, ... in order.
func (v *videoFold) feed(from int, sums []frameSummary) {
	f := v.f
	for j := range sums {
		i, s := from+j, &sums[j]
		v.shots.Feed(s.hist)
		v.sem.Feed(s.sem)
		if s.sem.Present {
			f.Semaphore[i] = clamp01(s.sem.Fill)
		}
		f.Sand[i] = clamp01(4 * s.sandDust.SandFraction)
		f.Dust[i] = clamp01(6 * s.sandDust.DustFraction)
		if s.motion != nil {
			f.ColorDiff[i] = s.colorDiff
			f.Motion[i] = clamp01(s.colorDiff * 8)
			f.Passing[i] = s.passing
			if v.dve.Feed(s.motion) {
				v.replay.FeedDVE(i)
			}
		}
		if v.rec == nil {
			continue
		}
		if s.band.Present {
			if v.bandLen == 0 {
				v.bandStart = i
			}
			v.bandLen = min(v.bandLen+1, 8)
		}
		if v.text.Feed(s.band) && v.bandLen > 0 {
			v.recognize()
		}
		if !s.band.Present {
			v.bandLen = 0
		}
	}
}

// finish closes the chains at the end of the race.
func (v *videoFold) finish() {
	f := v.f
	if v.rec != nil {
		v.text.Flush()
		if v.bandLen >= 5 {
			v.recognize()
		}
	}
	// Replay probabilities from paired DVEs.
	f.Replay = video.ReplayProbability(v.replay.Segments, f.N)
	for _, b := range v.shots.Boundaries {
		f.ShotBoundaries = append(f.ShotBoundaries, float64(b)*ClipDur)
	}
}

// recognize reads the caption of the current band from its first
// bandLen frames, re-rendered here because the map keeps no frames:
// their pixel-wise minimum suppresses the moving background, and the
// interpolated, binarized band goes to the recogniser.
func (v *videoFold) recognize() {
	frames := make([]*video.Frame, v.bandLen)
	for k := range frames {
		frames[k] = v.race.RenderFrame(float64(v.bandStart+k) * ClipDur)
	}
	band := vtext.Binarize(vtext.Interpolate4x(vtext.MinFilterBand(frames)), 170)
	for _, h := range v.rec.RecognizeBand(band) {
		v.f.Captions = append(v.f.Captions, CaptionHit{
			Word:  h.Word,
			Time:  float64(v.bandStart) * ClipDur,
			Score: h.Score,
		})
	}
	v.bandLen = 0
}

// extractVideo renders frames at 10 fps and runs the visual and text
// chains as an order-preserving map/fold: pool tasks map fixed chunks
// of consecutive clips to summaries, and the caller folds the summaries
// in clip order through the stateful detectors while the next span of
// chunks is already being mapped. Width 1 maps inline, which is the
// serial case; the output is the same at every width.
func (f *Features) extractVideo(race *synth.Race, withText bool) {
	n := f.N
	f.ColorDiff = make([]float64, n)
	f.Semaphore = make([]float64, n)
	f.Dust = make([]float64, n)
	f.Sand = make([]float64, n)
	f.Motion = make([]float64, n)
	f.Passing = make([]float64, n)

	v := &videoFold{
		f: f, race: race,
		shots:  video.NewShotDetector(video.DefaultShotConfig()),
		dve:    video.NewDVEDetector(),
		replay: video.NewReplayDetector(),
		text:   vtext.NewDetector(5),
	}
	if withText {
		lex := append(append([]string(nil), synth.Drivers...),
			"PIT", "STOP", "LAP", "WINNER", "FINAL", "1")
		v.rec = vtext.NewRecognizer(lex, 0.7)
	}

	pool := monet.DefaultPool()
	parallel := pool.Workers() > 1
	// A span is two chunks per worker, so every worker has a chunk to
	// take while the caller maps too. Two spans of summaries are in
	// flight: the one being folded and the one being mapped.
	span := min(n, 2*pool.Workers()*videoChunk)
	mapSpan := func(from int, out []frameSummary) *monet.Batch {
		b := pool.Batch()
		for c := 0; c < len(out); c += videoChunk {
			chunk := out[c:min(c+videoChunk, len(out))]
			task := func() { mapClips(race, from+c, chunk, withText) }
			if parallel {
				b.Submit(task)
			} else {
				task()
			}
		}
		return b
	}
	cur, next := make([]frameSummary, span), make([]frameSummary, span)
	mapped := mapSpan(0, cur)
	for from := 0; from < n; from += span {
		mapped.Wait()
		cur = cur[:min(span, n-from)]
		if to := from + span; to < n {
			next = next[:min(span, n-to)]
			mapped = mapSpan(to, next)
		}
		v.feed(from, cur)
		cur, next = next[:span], cur[:span]
	}
	v.finish()
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
