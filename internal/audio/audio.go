// Package audio implements the paper's audio characterization scheme
// (§5.2): short-time energy over frequency sub-bands, autocorrelation
// pitch, mel-frequency cepstral coefficients, pause rate, speech
// endpoint detection with the paper's thresholds, and the per-clip
// statistics (average, maximum, dynamic range) that feed the
// probabilistic networks.
//
// Terminology follows the paper: a *frame* is a 10 ms segment and a
// *clip* is a 0.1 s segment (10 frames). Sub-band energies are computed
// from the frame power spectrum, which is equivalent to the paper's
// "STE after sub-band division" filtering formulation.
package audio

import (
	"errors"
	"fmt"
	"math"

	"cobra/internal/dsp"
)

// Config parameterizes the analyzer. DefaultConfig matches the paper.
type Config struct {
	// SampleRate of the input PCM in Hz (the paper digitizes at 22 kHz).
	SampleRate float64
	// FrameDur is the frame duration in seconds (paper: 0.01 s).
	FrameDur float64
	// ClipDur is the clip duration in seconds (paper: 0.1 s).
	ClipDur float64
	// WindowDur is the analysis window length in seconds; windows are
	// centered on frame starts (hop = FrameDur).
	WindowDur float64
	// EndpointSTE is the speech endpoint threshold on the weighted sum
	// of average, maximum and dynamic range of low-band STE
	// (paper: 2.2e-3).
	EndpointSTE float64
	// EndpointMFCC is the endpoint threshold on the sum of the average
	// and dynamic range of the first three MFCCs (paper: 1.3).
	EndpointMFCC float64
	// SilenceEnergy is the per-frame full-band energy below which a
	// frame counts as silent for the pause-rate feature.
	SilenceEnergy float64
	// NumMFCC is the number of cepstral coefficients (paper: 12, of
	// which the first three are used for detection).
	NumMFCC int
	// PitchMinHz and PitchMaxHz bound the pitch search (speech pitch is
	// "usually under 1 kHz"; the useful range starts near 50 Hz).
	PitchMinHz float64
	PitchMaxHz float64
}

// DefaultConfig returns the paper's parameters for 22 kHz audio.
func DefaultConfig() Config {
	return Config{
		SampleRate:    22050,
		FrameDur:      0.010,
		ClipDur:       0.100,
		WindowDur:     0.020,
		EndpointSTE:   2.2e-3,
		EndpointMFCC:  1.3,
		SilenceEnergy: 1e-4,
		NumMFCC:       12,
		PitchMinHz:    50,
		PitchMaxHz:    1000,
	}
}

// FrameFeatures holds the per-frame measurements.
type FrameFeatures struct {
	// STELow is short-time energy in the 0–882 Hz band used for speech
	// endpoint detection.
	STELow float64
	// STEMid is short-time energy in the 882–2205 Hz band used for
	// excited-speech detection.
	STEMid float64
	// Pitch is the fundamental frequency estimate in Hz (0 when the
	// frame is unvoiced).
	Pitch float64
	// MFCC3 is the sum of the first three mel-frequency cepstral
	// coefficients.
	MFCC3 float64
	// Silent reports whether the frame's full-band energy falls below
	// the silence threshold.
	Silent bool
}

// ClipFeatures aggregates one 0.1 s clip: the unit of evidence for the
// probabilistic networks.
type ClipFeatures struct {
	// Time is the clip start in seconds.
	Time float64
	// Speech reports the endpoint detector's decision for the clip.
	Speech bool
	// PauseRate is the fraction of silent frames in the clip.
	PauseRate float64
	// Low-band STE statistics (endpoint detection).
	STELowAvg, STELowMax, STELowDyn float64
	// Mid-band STE statistics (excited speech).
	STEAvg, STEMax, STEDyn float64
	// Pitch statistics over voiced frames.
	PitchAvg, PitchMax, PitchDyn float64
	// MFCC statistics (first three coefficients).
	MFCCAvg, MFCCMax, MFCCDyn float64
}

// Analyzer computes frame and clip features from PCM samples.
type Analyzer struct {
	cfg      Config
	mel      *dsp.MelFilterbank
	dct      *dsp.DCT
	frameLen int
	winLen   int
	nfft     int
	window   []float64
	binHz    float64
	minLag   int
	maxLag   int
}

// NewAnalyzer validates the configuration and builds an analyzer.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if cfg.SampleRate <= 0 || cfg.FrameDur <= 0 || cfg.ClipDur <= 0 {
		return nil, errors.New("audio: sample rate and durations must be positive")
	}
	if cfg.ClipDur < cfg.FrameDur {
		return nil, errors.New("audio: clip shorter than frame")
	}
	if cfg.NumMFCC < 3 {
		return nil, fmt.Errorf("audio: NumMFCC %d < 3", cfg.NumMFCC)
	}
	if cfg.WindowDur < cfg.FrameDur {
		cfg.WindowDur = cfg.FrameDur
	}
	if cfg.PitchMinHz <= 0 || cfg.PitchMaxHz <= cfg.PitchMinHz {
		return nil, errors.New("audio: invalid pitch range")
	}
	a := &Analyzer{
		cfg:      cfg,
		frameLen: int(cfg.SampleRate * cfg.FrameDur),
		winLen:   int(cfg.SampleRate * cfg.WindowDur),
	}
	if a.frameLen < 8 {
		return nil, errors.New("audio: frame too short")
	}
	a.nfft = 1
	for a.nfft < a.winLen {
		a.nfft <<= 1
	}
	a.window = dsp.HammingWindow(a.winLen)
	a.binHz = cfg.SampleRate / float64(a.nfft)
	// MFCCs are computed over the low-passed 0–882 Hz region (§5.2).
	mel, err := dsp.NewMelFilterbank(2*cfg.NumMFCC, a.nfft/2+1, cfg.SampleRate, 0, 882)
	if err != nil {
		return nil, err
	}
	a.mel = mel
	a.dct = dsp.NewDCT(2*cfg.NumMFCC, 3)
	a.minLag = int(cfg.SampleRate / cfg.PitchMaxHz)
	a.maxLag = int(cfg.SampleRate / cfg.PitchMinHz)
	if a.maxLag >= a.winLen {
		a.maxLag = a.winLen - 1
	}
	if a.minLag < 2 {
		a.minLag = 2
	}
	return a, nil
}

// FrameLen returns the number of samples per frame.
func (a *Analyzer) FrameLen() int { return a.frameLen }

// FramesPerClip returns the number of frames per clip.
func (a *Analyzer) FramesPerClip() int {
	return int(math.Round(a.cfg.ClipDur / a.cfg.FrameDur))
}

// frameScratch holds one goroutine's per-frame buffers: the spectrum,
// mel energies, cepstrum and autocorrelation of a frame.
type frameScratch struct {
	re, im, power, melE, cc, ac []float64
}

func (a *Analyzer) newFrameScratch() *frameScratch {
	return &frameScratch{
		re:    make([]float64, a.nfft),
		im:    make([]float64, a.nfft),
		power: make([]float64, a.nfft/2+1),
		melE:  make([]float64, 2*a.cfg.NumMFCC),
		cc:    make([]float64, a.dct.Coeffs()),
		ac:    make([]float64, a.maxLag+1),
	}
}

// clipScratch holds one goroutine's per-clip buffers: a clip's series
// and its voiced pitches.
type clipScratch struct {
	steLow, steMid, mfcc, pitches []float64
}

func (a *Analyzer) newClipScratch() *clipScratch {
	fpc := a.FramesPerClip()
	return &clipScratch{
		steLow:  make([]float64, fpc),
		steMid:  make([]float64, fpc),
		mfcc:    make([]float64, fpc),
		pitches: make([]float64, 0, fpc),
	}
}

// windowOf returns the analysis window of frame f of samples: winLen
// samples from the frame's start, cut at the end of samples.
func (a *Analyzer) windowOf(samples []float64, f int) []float64 {
	start := f * a.frameLen
	return samples[start:min(start+a.winLen, len(samples))]
}

// measure fills every field of ff but Pitch from the frame's analysis
// window.
func (a *Analyzer) measure(ff *FrameFeatures, win []float64, s *frameScratch) {
	// Full-band energy for the silence decision.
	ff.Silent = dsp.Energy(win) < a.cfg.SilenceEnergy

	// Windowed power spectrum.
	re, im := s.re, s.im
	for i := range re {
		re[i], im[i] = 0, 0
	}
	for i, v := range win {
		re[i] = v * a.window[i]
	}
	dsp.FFT(re, im)
	// Sub-band energies. Normalizing by window length keeps the
	// scale comparable to time-domain STE.
	lowHi := int(882 / a.binHz)
	midHi := int(2205 / a.binHz)
	var low, mid float64
	for b := range s.power {
		p := (re[b]*re[b] + im[b]*im[b]) / float64(a.nfft)
		s.power[b] = p
		if b <= lowHi {
			low += p
		} else if b <= midHi {
			mid += p
		}
	}
	norm := float64(len(win))
	ff.STELow = low / norm
	ff.STEMid = mid / norm

	// MFCCs from the mel filterbank over the low band.
	a.mel.ApplyInto(s.melE, s.power)
	a.dct.Into(s.cc, s.melE)
	ff.MFCC3 = s.cc[0] + s.cc[1] + s.cc[2]
}

// AnalyzeFrames computes per-frame features for the whole signal,
// pitch included on every non-silent frame.
func (a *Analyzer) AnalyzeFrames(samples []float64) []FrameFeatures {
	out := make([]FrameFeatures, len(samples)/a.frameLen)
	s := a.newFrameScratch()
	for f := range out {
		win := a.windowOf(samples, f)
		a.measure(&out[f], win, s)
		// Pitch by autocorrelation over voiced-plausible lags.
		if !out[f].Silent {
			out[f].Pitch = a.pitch(win, s.ac)
		}
	}
	return out
}

// pitch estimates the fundamental frequency of one analysis window by
// normalized autocorrelation peak picking; it returns 0 for frames
// judged unvoiced. ac is scratch for maxLag+1 autocorrelation lags.
func (a *Analyzer) pitch(win, ac []float64) float64 {
	ac = dsp.AutocorrelationInto(ac, win, a.maxLag)
	if len(ac) == 0 || ac[0] <= 0 {
		return 0
	}
	hi := a.maxLag
	if hi >= len(ac) {
		hi = len(ac) - 1
	}
	// Skip the decaying shoulder of the lag-0 lobe: begin the peak
	// search only after the autocorrelation first crosses zero,
	// otherwise small lags on the main lobe win spuriously.
	start := a.minLag
	for start <= hi && ac[start] > 0 {
		start++
	}
	if start > hi {
		return 0 // no zero crossing: not periodic within range
	}
	bestLag, bestVal := 0, 0.0
	for lag := start; lag <= hi; lag++ {
		v := ac[lag] / ac[0]
		if v > bestVal {
			bestVal, bestLag = v, lag
		}
	}
	// Voicing gate: periodic speech has a strong normalized peak.
	if bestLag == 0 || bestVal < 0.30 {
		return 0
	}
	return a.cfg.SampleRate / float64(bestLag)
}

// ClipLen returns the number of samples per clip.
func (a *Analyzer) ClipLen() int { return a.FramesPerClip() * a.frameLen }

// SpanOverlap returns how many samples past its last clip a span's
// analysis reads: the last frame's window reaches that far into the
// next clip.
func (a *Analyzer) SpanOverlap() int { return max(a.winLen-a.frameLen, 0) }

// NumClips returns the number of whole clips in a signal of n samples.
func (a *Analyzer) NumClips(n int) int { return n / a.frameLen / a.FramesPerClip() }

// Analyze computes clip features for the whole signal, running the
// speech endpoint decision per clip; it is one span of AnalyzeSpan.
func (a *Analyzer) Analyze(samples []float64) []ClipFeatures {
	out := make([]ClipFeatures, a.NumClips(len(samples)))
	a.AnalyzeSpan(out, 0, samples)
	return out
}

// AnalyzeSpan computes clips first, first+1, ..., first+len(dst)-1 of
// a signal into dst. samples holds the signal from the first clip's
// first sample through SpanOverlap samples past the last clip, or to
// the signal's end if that comes sooner, so a long signal can be
// analysed span by span, in any order and side by side, with the
// whole-signal results.
//
// Excited-speech features are computed on speech segments only (§5.2),
// and the speech decision reads the energies and cepstra alone, so
// pitch is estimated only on the frames of clips the endpoint detector
// accepts: a non-speech clip's pitch statistics are zero.
func (a *Analyzer) AnalyzeSpan(dst []ClipFeatures, first int, samples []float64) {
	fpc := a.FramesPerClip()
	frames := make([]FrameFeatures, len(dst)*fpc)
	fs, cs := a.newFrameScratch(), a.newClipScratch()
	for f := range frames {
		a.measure(&frames[f], a.windowOf(samples, f), fs)
	}
	for c := range dst {
		cf := &dst[c]
		chunk := frames[c*fpc : (c+1)*fpc]
		a.clip(cf, first+c, chunk, cs)
		if !cf.Speech {
			continue
		}
		for i := range chunk {
			if !chunk[i].Silent {
				chunk[i].Pitch = a.pitch(a.windowOf(samples, c*fpc+i), fs.ac)
			}
		}
		pitchStats(cf, chunk, cs)
	}
}

// Clips aggregates per-frame features into per-clip statistics.
func (a *Analyzer) Clips(frames []FrameFeatures) []ClipFeatures {
	fpc := a.FramesPerClip()
	out := make([]ClipFeatures, len(frames)/fpc)
	s := a.newClipScratch()
	for c := range out {
		chunk := frames[c*fpc : (c+1)*fpc]
		a.clip(&out[c], c, chunk, s)
		pitchStats(&out[c], chunk, s)
	}
	return out
}

// clip fills every statistic of clip c but pitch from its frames, and
// runs the speech endpoint decision.
func (a *Analyzer) clip(cf *ClipFeatures, c int, chunk []FrameFeatures, s *clipScratch) {
	cf.Time = float64(c) * a.cfg.ClipDur
	steLow, steMid, mfcc := s.steLow, s.steMid, s.mfcc
	silent := 0
	for i, fr := range chunk {
		steLow[i] = fr.STELow
		steMid[i] = fr.STEMid
		mfcc[i] = fr.MFCC3
		if fr.Silent {
			silent++
		}
	}
	cf.PauseRate = float64(silent) / float64(len(chunk))
	cf.STELowAvg = dsp.Mean(steLow)
	cf.STELowMax = dsp.Max(steLow)
	cf.STELowDyn = dsp.DynamicRange(steLow)
	cf.STEAvg = dsp.Mean(steMid)
	cf.STEMax = dsp.Max(steMid)
	cf.STEDyn = dsp.DynamicRange(steMid)
	cf.MFCCAvg = dsp.Mean(mfcc)
	cf.MFCCMax = dsp.Max(mfcc)
	cf.MFCCDyn = dsp.DynamicRange(mfcc)

	// Speech endpoint decision (§5.2): a weighted sum of the
	// average, maximum and dynamic range of low-band STE against
	// 2.2e-3, and a low-band cepstral score against 1.3. The
	// cepstral statistic is affinely rescaled so that the paper's
	// threshold separates low-band-dominated speech from engine and
	// background noise under this implementation's mel floor.
	steScore := 1.0*cf.STELowAvg + 0.5*cf.STELowMax + 0.3*cf.STELowDyn
	mfccScore := (cf.MFCCAvg + 280) / 60
	cf.Speech = steScore > a.cfg.EndpointSTE && mfccScore > a.cfg.EndpointMFCC
}

// pitchStats fills the clip's pitch statistics from its voiced frames.
func pitchStats(cf *ClipFeatures, chunk []FrameFeatures, s *clipScratch) {
	pitches := s.pitches[:0]
	for _, fr := range chunk {
		if fr.Pitch > 0 {
			pitches = append(pitches, fr.Pitch)
		}
	}
	if len(pitches) > 0 {
		cf.PitchAvg = dsp.Mean(pitches)
		cf.PitchMax = dsp.Max(pitches)
		cf.PitchDyn = dsp.DynamicRange(pitches)
	}
}

// SpeechSegments merges consecutive speech clips into [start, end)
// second intervals, bridging gaps up to maxGap seconds and dropping
// segments shorter than minDur seconds.
func SpeechSegments(clips []ClipFeatures, clipDur, maxGap, minDur float64) [][2]float64 {
	var segs [][2]float64
	var cur *[2]float64
	gap := 0.0
	for _, c := range clips {
		if c.Speech {
			if cur == nil {
				segs = append(segs, [2]float64{c.Time, c.Time + clipDur})
				cur = &segs[len(segs)-1]
			} else {
				cur[1] = c.Time + clipDur
			}
			gap = 0
			continue
		}
		if cur != nil {
			gap += clipDur
			if gap > maxGap {
				cur = nil
			}
		}
	}
	out := segs[:0]
	for _, s := range segs {
		if s[1]-s[0] >= minDur {
			out = append(out, s)
		}
	}
	return out
}
