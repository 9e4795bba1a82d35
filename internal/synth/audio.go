package synth

import (
	"math"

	"cobra/internal/keyword"
)

// Commentator voice parameters.
const (
	basePitchHz    = 140.0
	excitedPitchX  = 1.8
	baseAmplitude  = 0.32
	excitedAmpX    = 1.9
	engineCenterHz = 1700.0
)

// RenderAudio synthesizes the broadcast audio mix: commentator speech
// (a harmonic voiced source whose pitch and level rise with
// excitement), engine noise concentrated above 1 kHz, and broadband
// crowd noise. The mix is deterministic in the race.
func (r *Race) RenderAudio() []float64 {
	n := int(r.Duration * SampleRate)
	out := make([]float64, n)
	r.renderSpeech(out)
	r.renderEngine(out)
	r.renderCrowd(out)
	return out
}

// renderSpeech adds the commentator's utterances.
func (r *Race) renderSpeech(out []float64) {
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
			// Excitement intensity varies: some bursts are mild and
			// blend into emphatic calm speech, as on real broadcasts.
			x := hash01(r.Seed+12, int64(ui))
			pitch *= excitedPitchX * (0.78 + 0.3*x)
			amp *= excitedAmpX * (0.8 + 0.3*x)
		} else if smoothNoise(r.Seed+13, u.Time, 0.06) > 0.78 {
			// Stretches of animated banter outside events: a raised
			// voice that overlaps mild excitement — the false-alarm
			// source real detectors face.
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
			// Mild prosody modulation.
			f := pitch * (1 + 0.05*math.Sin(2*math.Pi*2.5*t+float64(ui)))
			phase += 2 * math.Pi * f / SampleRate
			// Harmonic voiced source with 1/k rolloff. Raised voices
			// carry markedly more energy into the 882-2205 Hz band the
			// paper's emphasized-speech STE measures, both because the
			// fundamental rises and because excitement tilts the
			// spectrum (less high-harmonic damping).
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
			// Amplitude envelope per word (attack/decay).
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
}

// renderEngine adds car noise above 1 kHz, louder around passings and
// after the start.
func (r *Race) renderEngine(out []float64) {
	phases := [3]float64{}
	freqs := [3]float64{engineCenterHz * 0.8, engineCenterHz, engineCenterHz * 1.3}
	for i := range out {
		t := float64(i) / SampleRate
		amp := 0.04 + 0.05*smoothNoise(r.Seed+1, t, 0.4)
		if e, ok := r.eventAt(t); ok && (e.Type == EventPassing || e.Type == EventStart) {
			amp *= 1.8
		}
		v := 0.0
		for k := range freqs {
			// Slight frequency wobble (engines revving).
			f := freqs[k] * (1 + 0.04*smoothNoise(r.Seed+2+int64(k), t, 1.5))
			phases[k] += 2 * math.Pi * f / SampleRate
			v += math.Sin(phases[k])
		}
		out[i] += amp * v / 3
	}
}

// renderCrowd adds broadband crowd noise at the profile's level.
func (r *Race) renderCrowd(out []float64) {
	level := r.Profile.CrowdNoise
	if level <= 0 {
		return
	}
	// Cheap deterministic white-ish noise.
	state := uint64(r.Seed)*2862933555777941757 + 3037000493
	for i := range out {
		state = state*2862933555777941757 + 3037000493
		noise := float64(int64(state>>11))/(1<<52) - 1
		out[i] += level * noise
	}
}
