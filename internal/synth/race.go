// Package synth simulates a televised Formula 1 race: the data
// substitution for the three digitized 2001 Grand Prix broadcasts the
// paper uses (German, Belgian, USA). A seeded generator produces a
// ground-truth event timeline (start, passings, fly-outs, pit stops,
// replays), commentator behaviour (speech, excitement, keywords),
// caption overlays, and deterministic renderers for the audio signal
// (22 kHz PCM) and video frames (384x288 RGB at the feature sampling
// rate), which the real feature extractors then process.
//
// Per-race production profiles model the paper's observation that
// camera work differed between races: the German GP's steady direction
// makes the general motion-histogram passing cue work, while the
// Belgian and USA programs' aggressive camera work corrupts it
// (Table 4).
package synth

import (
	"math"
	"math/rand"
	"sort"

	"cobra/internal/eval"
	"cobra/internal/keyword"
)

// EventType classifies ground-truth race events.
type EventType string

// Ground-truth event types.
const (
	EventStart   EventType = "start"
	EventPassing EventType = "passing"
	EventFlyOut  EventType = "flyout"
	EventPitStop EventType = "pitstop"
	EventReplay  EventType = "replay"
	EventFinish  EventType = "finish"
)

// TrueEvent is one ground-truth occurrence. Replays carry the type of
// the event they re-show in SourceType.
type TrueEvent struct {
	Type       EventType
	SourceType EventType // set on replays only
	Start      float64
	End        float64
	Driver     string
}

// Caption is a superimposed-text overlay with its visibility window.
type Caption struct {
	// Words are the caption's words, left to right.
	Words []string
	Start float64
	End   float64
}

// Profile is a per-race production profile.
type Profile struct {
	// Name of the Grand Prix.
	Name string
	// CameraShake is the amplitude of random camera jerk in pixels per
	// frame; high values corrupt the motion-histogram passing cue.
	CameraShake float64
	// PanSpeed is the baseline camera pan in pixels per frame.
	PanSpeed float64
	// Passings, FlyOuts, PitStops are expected event counts per 600 s
	// of race (scaled with duration).
	Passings, FlyOuts, PitStops float64
	// CrowdNoise is the background noise amplitude in the audio mix.
	CrowdNoise float64
	// ExcitementRate is the probability the commentator gets excited
	// about an interesting event (the audio-only recall ceiling).
	ExcitementRate float64
}

// The three 2001-season races of §5.5. Event densities are raised
// relative to a real broadcast so that shortened simulated races still
// contain enough events to score.
var (
	// GermanGP has steady camera work: the passing cue works here.
	GermanGP = Profile{
		Name: "german", CameraShake: 0.3, PanSpeed: 1.2,
		Passings: 7, FlyOuts: 3, PitStops: 4,
		CrowdNoise: 0.02, ExcitementRate: 0.55,
	}
	// BelgianGP has aggressive camera work (Spa's sweeping shots).
	BelgianGP = Profile{
		Name: "belgian", CameraShake: 1.7, PanSpeed: 2.2,
		Passings: 6, FlyOuts: 4, PitStops: 4,
		CrowdNoise: 0.03, ExcitementRate: 0.55,
	}
	// USAGP also pans hard and, as in 2001, has no fly-outs at all.
	USAGP = Profile{
		Name: "usa", CameraShake: 1.4, PanSpeed: 2.0,
		Passings: 7, FlyOuts: 0, PitStops: 5,
		CrowdNoise: 0.025, ExcitementRate: 0.55,
	}
)

// Drivers on the simulated grid.
var Drivers = []string{
	"SCHUMACHER", "BARRICHELLO", "HAKKINEN", "COULTHARD",
	"MONTOYA", "RALF", "VILLENEUVE", "TRULLI",
}

// ExcitedKeywords are words the commentator uses when excited; the
// keyword spotter is configured with this list (§5.2: "a couple of
// tens of words that can usually be heard when the commentator is
// excited").
var ExcitedKeywords = []string{
	"INCREDIBLE", "FANTASTIC", "ACCIDENT", "CRASH", "OVERTAKE",
	"AMAZING", "UNBELIEVABLE", "SPIN", "GRAVEL", "LEADER",
}

// calmWords pad the commentary between events.
var calmWords = []string{
	"THE", "CAR", "LAP", "TYRES", "ENGINE", "TEAM", "STRATEGY",
	"SECTOR", "CIRCUIT", "WEATHER", "GEARBOX", "FUEL",
}

// Race is a fully generated broadcast with ground truth.
type Race struct {
	Profile  Profile
	Duration float64 // seconds
	Seed     int64

	Events     []TrueEvent
	Captions   []Caption
	Utterances []keyword.SpokenWord

	// Excitement marks ground-truth excited commentator speech.
	Excitement []eval.Segment
	// Highlights marks ground-truth interesting segments (every event
	// plus its replay).
	Highlights []eval.Segment
	// ShotBoundaries are ground-truth cut times in seconds.
	ShotBoundaries []float64

	rng *rand.Rand
}

// FPS is the video feature sampling rate (frames rendered per second).
const FPS = 10

// SampleRate is the audio sampling rate in Hz.
const SampleRate = 22050

// GenerateRace builds the ground truth for a race of the given
// duration. The generator is deterministic in (profile, duration,
// seed).
func GenerateRace(p Profile, duration float64, seed int64) *Race {
	rng := rand.New(rand.NewSource(seed ^ int64(len(p.Name))<<32))
	r := &Race{Profile: p, Duration: duration, Seed: seed, rng: rng}

	scale := duration / 600
	add := func(t EventType, start, dur float64, driver string) TrueEvent {
		e := TrueEvent{Type: t, Start: start, End: start + dur, Driver: driver}
		r.Events = append(r.Events, e)
		return e
	}
	// Race start: semaphore sequence ends ~30 s in.
	startAt := 25 + rng.Float64()*10
	add(EventStart, startAt, 12, "")
	// Finish near the end.
	add(EventFinish, duration-20, 12, Drivers[0])

	// Scatter passings, fly-outs and pit stops, keeping events apart.
	occupied := []eval.Segment{{Start: startAt - 10, End: startAt + 25}, {Start: duration - 35, End: duration}}
	place := func(dur float64) (float64, bool) {
		for try := 0; try < 128; try++ {
			t := startAt + 25 + rng.Float64()*(duration-startAt-70)
			s := eval.Segment{Start: t - 4, End: t + dur + 4}
			ok := true
			for _, o := range occupied {
				if s.Overlap(o) > 0 {
					ok = false
					break
				}
			}
			if ok {
				occupied = append(occupied, s)
				return t, true
			}
		}
		return 0, false
	}
	count := func(rate float64) int {
		n := int(rate*scale + 0.5)
		if rate > 0 && n == 0 {
			n = 1
		}
		return n
	}
	for i := 0; i < count(p.Passings); i++ {
		if t, ok := place(8); ok {
			add(EventPassing, t, 8, Drivers[rng.Intn(len(Drivers))])
		}
	}
	for i := 0; i < count(p.FlyOuts); i++ {
		if t, ok := place(10); ok {
			add(EventFlyOut, t, 10, Drivers[1+rng.Intn(len(Drivers)-1)])
		}
	}
	for i := 0; i < count(p.PitStops); i++ {
		if t, ok := place(14); ok {
			add(EventPitStop, t, 14, Drivers[rng.Intn(len(Drivers))])
		}
	}
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Start < r.Events[j].Start })

	// Replays: most passings and fly-outs are replayed shortly after.
	var replays []TrueEvent
	for _, e := range r.Events {
		if e.Type != EventPassing && e.Type != EventFlyOut {
			continue
		}
		if rng.Float64() < 0.8 {
			gap := 4 + rng.Float64()*6
			dur := e.End - e.Start
			replays = append(replays, TrueEvent{
				Type: EventReplay, SourceType: e.Type,
				Start: e.End + gap, End: e.End + gap + dur, Driver: e.Driver,
			})
		}
	}
	r.Events = append(r.Events, replays...)
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Start < r.Events[j].Start })

	r.buildHighlights()
	r.buildCommentary()
	r.buildCaptions()
	r.buildShots()
	return r
}

// buildHighlights derives the interesting-segment ground truth: race
// start, passings, fly-outs, the finish, and every replay. Routine pit
// stops are not highlights — they are reached through the superimposed
// text instead (§5.6).
func (r *Race) buildHighlights() {
	for _, e := range r.Events {
		if e.Type == EventPitStop {
			continue
		}
		r.Highlights = append(r.Highlights, eval.Segment{
			Start: e.Start, End: e.End, Label: string(e.Type),
		})
	}
}

// buildCommentary lays out utterances and excitement segments: the
// commentator talks most of the time, gets excited about a fraction of
// interesting events (ExcitementRate) and then uses excited keywords.
func (r *Race) buildCommentary() {
	rng := r.rng
	// Excitement windows.
	for _, e := range r.Events {
		if e.Type == EventReplay {
			continue // replays are rarely re-narrated excitedly
		}
		if rng.Float64() < r.Profile.ExcitementRate || e.Type == EventStart || e.Type == EventFinish {
			r.Excitement = append(r.Excitement, eval.Segment{
				Start: e.Start, End: e.End + 2, Label: string(e.Type),
			})
		}
	}
	// A couple of spontaneous excitement bursts (banter, pit radio).
	for i := 0; i < int(r.Duration/300)+1; i++ {
		t := rng.Float64() * (r.Duration - 10)
		r.Excitement = append(r.Excitement, eval.Segment{Start: t, End: t + 4, Label: "banter"})
	}
	sort.Slice(r.Excitement, func(i, j int) bool { return r.Excitement[i].Start < r.Excitement[j].Start })

	// Utterance cadence: calm commentary is measured, with sentence
	// pauses; excited commentary is near-continuous rapid speech (the
	// basis of the pause-rate cue, §5.2).
	t := 2.0
	wordsLeft := 0
	for t < r.Duration-2 {
		excited := r.excitedAt(t)
		if !excited && wordsLeft <= 0 {
			// Sentence boundary: pause, then a fresh burst of words.
			t += 0.6 + rng.Float64()*1.8
			wordsLeft = 4 + rng.Intn(7)
			continue
		}
		word := calmWords[rng.Intn(len(calmWords))]
		if excited {
			switch rng.Intn(3) {
			case 0:
				word = ExcitedKeywords[rng.Intn(len(ExcitedKeywords))]
			case 1:
				word = r.driverAt(t)
			}
		} else if rng.Float64() < 0.1 {
			word = Drivers[rng.Intn(len(Drivers))]
		}
		r.Utterances = append(r.Utterances, keyword.SpokenWord{Word: word, Time: t})
		wordsLeft--
		// Both calm sentences and excited commentary flow word to word;
		// what distinguishes excitement is the voice, not the gaps
		// alone (calm sentences still end in pauses).
		dur := float64(len(keyword.PhoneSequence(word))) / keyword.PhoneRate
		if excited {
			t += dur + 0.04 + rng.Float64()*0.1
		} else {
			t += dur + 0.06 + rng.Float64()*0.16
		}
	}
}

// excitedAt reports whether t falls in an excitement segment.
func (r *Race) excitedAt(t float64) bool {
	for _, s := range r.Excitement {
		if t >= s.Start && t < s.End {
			return true
		}
	}
	return false
}

// driverAt returns the driver of the event at time t, or a random one.
func (r *Race) driverAt(t float64) string {
	for _, e := range r.Events {
		if t >= e.Start-2 && t < e.End+4 && e.Driver != "" {
			return e.Driver
		}
	}
	return Drivers[r.rng.Intn(len(Drivers))]
}

// buildCaptions overlays the superimposed text: driver name and PIT at
// pit stops, LAP 1 after the start, WINNER at the finish, periodic
// classification captions.
func (r *Race) buildCaptions() {
	for _, e := range r.Events {
		switch e.Type {
		case EventPitStop:
			r.Captions = append(r.Captions, Caption{
				Words: []string{e.Driver, "PIT"}, Start: e.Start + 1, End: e.End - 1,
			})
		case EventStart:
			r.Captions = append(r.Captions, Caption{
				Words: []string{"LAP", "1"}, Start: e.End, End: e.End + 4,
			})
		case EventFinish:
			r.Captions = append(r.Captions, Caption{
				Words: []string{"WINNER", e.Driver}, Start: e.Start + 2, End: e.End,
			})
		}
	}
	// Periodic leader caption.
	for t := 90.0; t < r.Duration-30; t += 120 {
		r.Captions = append(r.Captions, Caption{
			Words: []string{Drivers[0]}, Start: t, End: t + 4,
		})
	}
	sort.Slice(r.Captions, func(i, j int) bool { return r.Captions[i].Start < r.Captions[j].Start })
}

// buildShots places shot boundaries every 4–14 s, plus cuts at event
// starts and replay edges.
func (r *Race) buildShots() {
	rng := r.rng
	t := 0.0
	for t < r.Duration {
		t += 4 + rng.Float64()*10
		if t < r.Duration {
			r.ShotBoundaries = append(r.ShotBoundaries, t)
		}
	}
	for _, e := range r.Events {
		if e.Type == EventReplay {
			continue
		}
		r.ShotBoundaries = append(r.ShotBoundaries, e.Start)
	}
	sort.Float64s(r.ShotBoundaries)
	// Deduplicate boundaries closer than 1 s, and drop boundaries that
	// fall inside replay windows: a replay runs continuously (no cuts),
	// so no boundary is visible there.
	out := r.ShotBoundaries[:0]
	last := -10.0
	for _, b := range r.ShotBoundaries {
		if b-last < 1 {
			continue
		}
		if _, inReplay := r.replayAt(b); inReplay {
			continue
		}
		out = append(out, b)
		last = b
	}
	r.ShotBoundaries = out
}

// EventsOf returns the ground-truth events of one type.
func (r *Race) EventsOf(t EventType) []TrueEvent {
	var out []TrueEvent
	for _, e := range r.Events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// eventAt returns the event (excluding replays) covering time t.
func (r *Race) eventAt(t float64) (TrueEvent, bool) {
	for _, e := range r.Events {
		if e.Type == EventReplay {
			continue
		}
		if t >= e.Start && t < e.End {
			return e, true
		}
	}
	return TrueEvent{}, false
}

// eventCursor answers eventAt for a non-decreasing sequence of times
// without scanning every event per call.
type eventCursor struct {
	events []indexedEvent // the non-replay events, stably sorted by Start
	lo     int            // events[:lo] have ended
	next   int            // events[next:] have not started
}

// indexedEvent is an event with its position in Race.Events.
type indexedEvent struct {
	TrueEvent
	idx int
}

// eventCursor returns a cursor over r's non-replay events.
func (r *Race) eventCursor() *eventCursor {
	c := &eventCursor{}
	for i, e := range r.Events {
		if e.Type != EventReplay {
			c.events = append(c.events, indexedEvent{e, i})
		}
	}
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].Start < c.events[j].Start })
	return c
}

// at returns eventAt(t); t must not be less than the previous call's.
// Of the events that have started and not ended it returns the one
// first in Race.Events, as eventAt does.
func (c *eventCursor) at(t float64) (TrueEvent, bool) {
	for c.next < len(c.events) && c.events[c.next].Start <= t {
		c.next++
	}
	for c.lo < c.next && c.events[c.lo].End <= t {
		c.lo++
	}
	best := -1
	for i := c.lo; i < c.next; i++ {
		if e := &c.events[i]; t < e.End && (best < 0 || e.idx < c.events[best].idx) {
			best = i
		}
	}
	if best < 0 {
		return TrueEvent{}, false
	}
	return c.events[best].TrueEvent, true
}

// replayAt returns the replay covering time t.
func (r *Race) replayAt(t float64) (TrueEvent, bool) {
	for _, e := range r.Events {
		if e.Type != EventReplay {
			continue
		}
		if t >= e.Start && t < e.End {
			return e, true
		}
	}
	return TrueEvent{}, false
}

// shotIndexAt returns the shot ordinal containing time t.
func (r *Race) shotIndexAt(t float64) int {
	i := sort.SearchFloat64s(r.ShotBoundaries, t)
	return i
}

// hash01 maps integers to a deterministic pseudo-random float in
// [0, 1), used by the stateless renderers.
func hash01(seed int64, ks ...int64) float64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for _, k := range ks {
		h ^= uint64(k) + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h *= 0xbf58476d1ce4e5b9
	}
	h ^= h >> 31
	return float64(h%1_000_003) / 1_000_003
}

// smoothNoise is low-frequency deterministic noise over time.
func smoothNoise(seed int64, t, rate float64) float64 {
	n := noiseTrack{seed: seed, rate: rate}
	return n.at(t)
}

// noiseTrack evaluates smoothNoise(seed, t, rate) along a track of
// times, hashing the two ends of a noise cell once while t stays in it.
type noiseTrack struct {
	seed   int64
	rate   float64
	cell   int64 // the cell a and b belong to, once hashed
	hashed bool
	a, b   float64
}

func (n *noiseTrack) at(t float64) float64 {
	c, w := noiseWeight(t, n.rate)
	return n.mix(c, w)
}

// noiseWeight returns the smooth-noise cell that time t falls in at the
// given rate, and t's cosine interpolation weight within it.
func noiseWeight(t, rate float64) (cell int64, w float64) {
	x := t * rate
	i := math.Floor(x)
	f := x - i
	return int64(i), (1 - math.Cos(math.Pi*f)) / 2
}

// mix interpolates the track's noise at weight w of cell c, as
// noiseWeight returned them for the track's rate.
func (n *noiseTrack) mix(c int64, w float64) float64 {
	if !n.hashed || c != n.cell {
		n.cell, n.hashed = c, true
		n.a, n.b = hash01(n.seed, c), hash01(n.seed, c+1)
	}
	return n.a*(1-w) + n.b*w
}
