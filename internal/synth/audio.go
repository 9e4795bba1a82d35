package synth

import (
	"math"
	"sort"

	"cobra/internal/keyword"
)

// Commentator voice parameters.
const (
	basePitchHz    = 140.0
	excitedPitchX  = 1.8
	baseAmplitude  = 0.32
	excitedAmpX    = 1.9
	engineCenterHz = 1700.0
	// wobbleRate is the smooth-noise rate of the engines' frequency
	// wobble, the same for all three.
	wobbleRate = 1.5
)

// AudioRenderer synthesizes a race's broadcast audio mix — commentator
// speech (a harmonic voiced source whose pitch and level rise with
// excitement), engine noise concentrated above 1 kHz and broadband
// crowd noise — as a stream of spans. The mix is deterministic in the
// race, and the spans concatenate to the same samples however the
// stream is cut: every sample gets its speech adds in utterance order,
// then the engine's, then the crowd's, and every accumulator (voice and
// engine phases, smooth-noise cells, event cursor, noise generator)
// carries over from one span to the next.
type AudioRenderer struct {
	n, pos  int     // samples in the race, next sample to render
	voices  []voice // audible utterances, in utterance order
	byStart []int   // voices indices ordered by first sample
	next    int     // byStart[next:] have not started
	active  []int   // started voices not yet finished, ascending
	engine  engine
	crowd   crowd
}

// NewAudioRenderer returns a renderer positioned at the race's first
// sample.
func NewAudioRenderer(r *Race) *AudioRenderer {
	a := &AudioRenderer{n: int(r.Duration * SampleRate), engine: newEngine(r)}
	a.crowd = crowd{level: r.Profile.CrowdNoise, state: uint64(r.Seed)*lcgMul + lcgAdd}
	for ui, u := range r.Utterances {
		if v, ok := r.newVoice(ui, u, a.n); ok {
			a.voices = append(a.voices, v)
		}
	}
	a.byStart = make([]int, len(a.voices))
	for i := range a.byStart {
		a.byStart[i] = i
	}
	sort.SliceStable(a.byStart, func(i, j int) bool { return a.voices[a.byStart[i]].lo < a.voices[a.byStart[j]].lo })
	return a
}

// Samples returns the number of samples in the race.
func (a *AudioRenderer) Samples() int { return a.n }

// Render fills dst with the next samples of the mix and returns how
// many it rendered: len(dst), or fewer at the end of the race.
func (a *AudioRenderer) Render(dst []float64) int {
	dst = dst[:min(len(dst), a.n-a.pos)]
	from, to := a.pos, a.pos+len(dst)
	clear(dst)
	for a.next < len(a.byStart) && a.voices[a.byStart[a.next]].lo < to {
		vi := a.byStart[a.next]
		k := sort.SearchInts(a.active, vi)
		a.active = append(a.active, 0)
		copy(a.active[k+1:], a.active[k:])
		a.active[k] = vi
		a.next++
	}
	live := a.active[:0]
	for _, vi := range a.active {
		v := &a.voices[vi]
		v.render(dst, from)
		if v.hi > to {
			live = append(live, vi)
		}
	}
	a.active = live
	a.engine.render(dst, from)
	a.crowd.render(dst)
	a.pos = to
	return len(dst)
}

// voice is one utterance of the commentator: its parameters, drawn
// from the race seed, and the phase of its voiced source.
type voice struct {
	ui            float64 // utterance index, the prosody's phase offset
	pitch, amp    float64
	damp          float64 // harmonic damping
	start, length int     // sample of the utterance's first sample, and its length
	lo, hi        int     // its samples inside the race: [lo, hi)
	phase         float64 // advanced on in-race samples only
}

// newVoice sets up utterance ui of a race of n samples; ok is false
// when it has no samples inside the race.
func (r *Race) newVoice(ui int, u keyword.SpokenWord, n int) (v voice, ok bool) {
	phones := keyword.PhoneSequence(u.Word)
	dur := float64(len(phones)) / keyword.PhoneRate
	if dur <= 0 {
		return voice{}, false
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
	// Raised voices carry markedly more energy into the 882-2205 Hz
	// band the paper's emphasized-speech STE measures, both because the
	// fundamental rises and because excitement tilts the spectrum (less
	// high-harmonic damping).
	damp := 0.55
	if excited {
		damp = 0.95
	}
	v = voice{
		ui: float64(ui), pitch: pitch, amp: amp, damp: damp,
		start: int(u.Time * SampleRate), length: int(dur * SampleRate),
	}
	v.lo, v.hi = max(v.start, 0), min(v.start+v.length, n)
	return v, v.lo < v.hi
}

// render adds the voice's samples inside [from, from+len(dst)) to dst.
func (v *voice) render(dst []float64, from int) {
	lo, hi := max(v.lo, from), min(v.hi, from+len(dst))
	for idx := lo; idx < hi; idx++ {
		i := idx - v.start
		t := float64(i) / SampleRate
		// Mild prosody modulation.
		f := v.pitch * (1 + 0.05*math.Sin(2*math.Pi*2.5*t+v.ui))
		v.phase += 2 * math.Pi * f / SampleRate
		// Harmonic voiced source with 1/k rolloff.
		s := 0.0
		hAmp := 1.0
		for k := 1; k <= 8; k++ {
			s += hAmp * math.Sin(float64(k)*v.phase)
			hAmp *= v.damp / (1 + 0.12*float64(k))
		}
		// Amplitude envelope per word (attack/decay).
		env := 1.0
		edge := 0.02 * SampleRate
		if fi := float64(i); fi < edge {
			env = fi / edge
		} else if rem := float64(v.length - i); rem < edge {
			env = rem / edge
		}
		dst[idx-from] += v.amp * env * s / 2.75
	}
}

// engine is car noise above 1 kHz, louder around passings and after the
// start. Its time only grows, so the covering event comes from a
// forward cursor and each smooth-noise cell is hashed once.
type engine struct {
	phases [3]float64
	events *eventCursor
	level  noiseTrack
	wobble [3]noiseTrack // all at wobbleRate
}

func newEngine(r *Race) engine {
	e := engine{events: r.eventCursor(), level: noiseTrack{seed: r.Seed + 1, rate: 0.4}}
	for k := range e.wobble {
		e.wobble[k] = noiseTrack{seed: r.Seed + 2 + int64(k), rate: wobbleRate}
	}
	return e
}

// render adds the engines' samples from, from+1, ... to dst.
func (e *engine) render(dst []float64, from int) {
	freqs := [3]float64{engineCenterHz * 0.8, engineCenterHz, engineCenterHz * 1.3}
	for j := range dst {
		t := float64(from+j) / SampleRate
		amp := 0.04 + 0.05*e.level.at(t)
		if ev, ok := e.events.at(t); ok && (ev.Type == EventPassing || ev.Type == EventStart) {
			amp *= 1.8
		}
		// The three wobble tracks share rate and time, so they share
		// the cell and its cosine weight.
		cell, w := noiseWeight(t, wobbleRate)
		v := 0.0
		for k := range freqs {
			// Slight frequency wobble (engines revving).
			f := freqs[k] * (1 + 0.04*e.wobble[k].mix(cell, w))
			e.phases[k] += 2 * math.Pi * f / SampleRate
			v += math.Sin(e.phases[k])
		}
		dst[j] += amp * v / 3
	}
}

// crowd is broadband crowd noise at the profile's level: cheap
// deterministic white-ish noise from the 64-bit LCG.
type crowd struct {
	level float64
	state uint64
}

func (c *crowd) render(dst []float64) {
	if c.level <= 0 {
		return
	}
	for j := range dst {
		c.state = c.state*lcgMul + lcgAdd
		noise := float64(int64(c.state>>11))/(1<<52) - 1
		dst[j] += c.level * noise
	}
}
