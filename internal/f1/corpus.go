package f1

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/dbn"
	"cobra/internal/eval"
	"cobra/internal/monet"
	"cobra/internal/rules"
	"cobra/internal/synth"
)

// FeatureNames lists the catalog names of the materialized feature
// streams, in the order of §5.5's f1..f17 plus the passing cue and the
// aggregate audio excitement score.
var FeatureNames = []string{
	"keywords", "pauserate",
	"steavg", "stedyn", "stemax",
	"pitchavg", "pitchdyn", "pitchmax",
	"mfccavg", "mfccmax",
	"partofrace", "replay", "colordiff", "semaphore", "dust", "sand", "motion",
	"passing", "audioex",
}

// series returns f's feature streams in FeatureNames order: the i-th is
// the stream named FeatureNames[i].
func (f *Features) series() [][]float64 {
	return [][]float64{
		f.Keywords, f.PauseRate,
		f.STEAvg, f.STEDyn, f.STEMax,
		f.PitchAvg, f.PitchDyn, f.PitchMax,
		f.MFCCAvg, f.MFCCMax,
		f.PartOfRace, f.Replay, f.ColorDiff, f.Semaphore, f.Dust, f.Sand, f.Motion,
		f.Passing, f.AudioExcitementScore(),
	}
}

// Event types materialized by the extraction engines.
const (
	EventHighlight = "highlight"
	EventStart     = "start"
	EventFlyOut    = "flyout"
	EventPassing   = "passing"
	EventExcited   = "excited"
	EventCaption   = "caption"
	EventPitStop   = "pitstop"
	EventWinner    = "winner"
)

// Corpus owns the simulated broadcast material (the raw-data layer of
// the model) and exposes the paper's extraction engines to the query
// preprocessor. Feature extraction and network training are cached.
type Corpus struct {
	cfg ExpConfig

	mu     sync.Mutex
	races  map[string]*synth.Race
	feats  map[string]*Features
	avDBN  *dbn.DBN
	audDBN *dbn.DBN
}

// NewCorpus builds a corpus with the three 2001 races at the
// configured scale.
func NewCorpus(cfg ExpConfig) *Corpus {
	c := &Corpus{cfg: cfg, races: map[string]*synth.Race{}, feats: map[string]*Features{}}
	for _, p := range []synth.Profile{synth.GermanGP, synth.BelgianGP, synth.USAGP} {
		c.races[p.Name+"-gp"] = synth.GenerateRace(p, cfg.RaceDur, cfg.Seed)
	}
	return c
}

// AddRace registers additional material under the given video name.
func (c *Corpus) AddRace(name string, race *synth.Race) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.races[name] = race
}

// Race returns the registered race for a video name.
func (c *Corpus) Race(name string) (*synth.Race, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.races[name]
	return r, ok
}

// IngestVideos registers every race as a raw-layer video.
func (c *Corpus) IngestVideos(cat *cobra.Catalog) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, r := range c.races {
		if err := cat.PutVideo(cobra.Video{Name: name, Duration: r.Duration, FPS: synth.FPS}); err != nil {
			return err
		}
	}
	return nil
}

// features lazily extracts and caches the feature set for a video.
func (c *Corpus) features(video string) (*Features, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.feats[video]; ok {
		return f, nil
	}
	race, ok := c.races[video]
	if !ok {
		return nil, fmt.Errorf("f1: no raw material for video %q", video)
	}
	f, err := Extract(race, Options{Seed: c.cfg.Seed})
	if err != nil {
		return nil, err
	}
	c.feats[video] = f
	return f, nil
}

// Prefetch extracts the features of the named videos side by side on
// the shared kernel pool (one after another at width 1) and caches
// them, so the engines later run for those videos find their features
// ready. The races are independent, so the cached features are the
// ones one-at-a-time extraction gives. It returns each video's
// extraction wall time; a video extracted earlier took none here.
func (c *Corpus) Prefetch(videos []string) (map[string]time.Duration, error) {
	took := make(map[string]time.Duration, len(videos))
	var todo []string
	var races []*synth.Race
	c.mu.Lock()
	for _, v := range videos {
		if _, ok := c.feats[v]; ok {
			took[v] = 0
			continue
		}
		race, ok := c.races[v]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("f1: no raw material for video %q", v)
		}
		todo = append(todo, v)
		races = append(races, race)
	}
	c.mu.Unlock()

	feats := make([]*Features, len(todo))
	errs := make([]error, len(todo))
	durs := make([]time.Duration, len(todo))
	pool := monet.DefaultPool()
	batch := pool.Batch()
	for i, race := range races {
		task := func() {
			start := time.Now()
			feats[i], errs[i] = Extract(race, Options{Seed: c.cfg.Seed})
			durs[i] = time.Since(start)
		}
		if pool.Workers() > 1 {
			batch.Submit(task)
		} else {
			task() // width 1 is the serial case
		}
	}
	batch.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range todo {
		if errs[i] != nil {
			return nil, fmt.Errorf("f1: extracting %s: %w", v, errs[i])
		}
		if _, ok := c.feats[v]; !ok {
			c.feats[v] = feats[i]
		}
		took[v] = durs[i]
	}
	return took, nil
}

// trainingVideo returns the video the networks are trained on (the
// German GP, as in the paper).
func (c *Corpus) trainingVideo() string { return synth.GermanGP.Name + "-gp" }

// avModel lazily trains the audio-visual DBN on the German GP prefix.
func (c *Corpus) avModel() (*dbn.DBN, error) {
	c.mu.Lock()
	cached := c.avDBN
	c.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	f, err := c.features(c.trainingVideo())
	if err != nil {
		return nil, err
	}
	d, err := NewAVDBN(true)
	if err != nil {
		return nil, err
	}
	obs := f.AVObservations(true)
	n := int(c.cfg.TrainDur / ClipDur)
	if n > len(obs) {
		n = len(obs)
	}
	cfg := dbn.DefaultEMConfig()
	cfg.MaxIterations = c.cfg.EMIterations
	cfg.Anchor = 60
	if _, err := d.LearnEM(splitSegments(obs[:n], 6), cfg); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.avDBN = d
	c.mu.Unlock()
	return d, nil
}

// audioModel lazily trains the audio DBN on the German GP prefix.
func (c *Corpus) audioModel() (*dbn.DBN, error) {
	c.mu.Lock()
	cached := c.audDBN
	c.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	f, err := c.features(c.trainingVideo())
	if err != nil {
		return nil, err
	}
	d, err := NewAudioDBN(FullyParameterized, TemporalFig8)
	if err != nil {
		return nil, err
	}
	obs := f.AudioObservations()
	n := int(c.cfg.TrainDur / ClipDur)
	if n > len(obs) {
		n = len(obs)
	}
	cfg := dbn.DefaultEMConfig()
	cfg.MaxIterations = c.cfg.EMIterations
	cfg.Anchor = 10
	if _, err := d.LearnEM(splitSegments(obs[:n], c.cfg.TrainSegments), cfg); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.audDBN = d
	c.mu.Unlock()
	return d, nil
}

// RegisterExtractors installs the extraction engines on a
// preprocessor: the video-processing/feature engine, the text
// detection/recognition engine, the audio and audio-visual DBN
// engines, and the rule engine deriving pit stops and winners from
// captions.
func (c *Corpus) RegisterExtractors(pre *cobra.Preprocessor) {
	featureReqs := make([]cobra.Requirement, len(FeatureNames))
	for i, n := range FeatureNames {
		featureReqs[i] = cobra.Requirement{Kind: cobra.NeedFeature, Name: n}
	}
	pre.Register(cobra.ExtractorFunc{
		EngineName: "video-processing",
		Outputs:    featureReqs,
		CostVal:    10, QualityVal: 0.9,
		Fn: c.extractFeatures,
	})
	pre.Register(cobra.ExtractorFunc{
		EngineName: "text-recognition",
		Outputs:    []cobra.Requirement{{Kind: cobra.NeedEvents, Name: EventCaption}},
		CostVal:    6, QualityVal: 0.9,
		Fn: c.extractCaptions,
	})
	pre.Register(cobra.ExtractorFunc{
		EngineName: "audio-dbn",
		Outputs:    []cobra.Requirement{{Kind: cobra.NeedEvents, Name: EventExcited}},
		CostVal:    8, QualityVal: 0.85,
		Fn: c.extractExcited,
	})
	pre.Register(cobra.ExtractorFunc{
		EngineName: "av-dbn",
		Outputs: []cobra.Requirement{
			{Kind: cobra.NeedEvents, Name: EventHighlight},
			{Kind: cobra.NeedEvents, Name: EventStart},
			{Kind: cobra.NeedEvents, Name: EventFlyOut},
			{Kind: cobra.NeedEvents, Name: EventPassing},
		},
		CostVal: 12, QualityVal: 0.85,
		Fn: c.extractHighlights,
	})
	pre.Register(cobra.ExtractorFunc{
		EngineName: "object-tracking",
		Outputs:    []cobra.Requirement{{Kind: cobra.NeedObjects, Name: ""}},
		CostVal:    2, QualityVal: 0.7,
		Fn: c.deriveObjects,
	})
	pre.Register(cobra.ExtractorFunc{
		EngineName: "caption-rules",
		Outputs: []cobra.Requirement{
			{Kind: cobra.NeedEvents, Name: EventPitStop},
			{Kind: cobra.NeedEvents, Name: EventWinner},
		},
		CostVal: 1, QualityVal: 0.9,
		Fn: c.deriveCaptionEvents,
	})
}

// extractFeatures materializes all feature streams.
func (c *Corpus) extractFeatures(cat *cobra.Catalog, video string) error {
	f, err := c.features(video)
	if err != nil {
		return err
	}
	for i, vals := range f.series() {
		if err := cat.PutFeature(cobra.Feature{
			Video: video, Name: FeatureNames[i], SampleRate: 1 / ClipDur, Values: vals,
		}); err != nil {
			return err
		}
	}
	return nil
}

// extractCaptions materializes recognized superimposed-text words as
// caption events.
func (c *Corpus) extractCaptions(cat *cobra.Catalog, video string) error {
	f, err := c.features(video)
	if err != nil {
		return err
	}
	var events []cobra.Event
	for _, h := range f.Captions {
		events = append(events, cobra.Event{
			Video: video, Type: EventCaption,
			Interval:   cobra.Interval{Start: h.Time, End: h.Time + 1},
			Confidence: h.Score,
			Attrs:      map[string]string{"word": h.Word},
		})
	}
	if len(events) == 0 {
		// Materialize an explicit empty marker so availability checks
		// don't re-run the engine... the catalog has no empty marker,
		// so store a sentinel with zero confidence.
		events = append(events, cobra.Event{
			Video: video, Type: EventCaption,
			Interval:   cobra.Interval{Start: 0, End: 0.1},
			Confidence: 0,
			Attrs:      map[string]string{"word": ""},
		})
	}
	return cat.PutEvents(video, events)
}

// Model persistence prefixes: trained parameters live in the database
// (§2: domain knowledge stored within the DB) and survive snapshots.
const (
	audioModelPrefix = "cobra/model/audio-dbn"
	avModelPrefix    = "cobra/model/av-dbn"
)

// loadOrTrainAudio returns the audio DBN, preferring parameters saved
// in the catalog's store over retraining.
func (c *Corpus) loadOrTrainAudio(cat *cobra.Catalog) (*dbn.DBN, error) {
	probe, err := NewAudioDBN(FullyParameterized, TemporalFig8)
	if err != nil {
		return nil, err
	}
	if probe.HasParams(cat.Store(), audioModelPrefix) {
		if err := probe.LoadParams(cat.Store(), audioModelPrefix); err == nil {
			return probe, nil
		}
	}
	d, err := c.audioModel()
	if err != nil {
		return nil, err
	}
	d.SaveParams(cat.Store(), audioModelPrefix)
	return d, nil
}

// loadOrTrainAV is loadOrTrainAudio for the audio-visual network.
func (c *Corpus) loadOrTrainAV(cat *cobra.Catalog) (*dbn.DBN, error) {
	probe, err := NewAVDBN(true)
	if err != nil {
		return nil, err
	}
	if probe.HasParams(cat.Store(), avModelPrefix) {
		if err := probe.LoadParams(cat.Store(), avModelPrefix); err == nil {
			return probe, nil
		}
	}
	d, err := c.avModel()
	if err != nil {
		return nil, err
	}
	d.SaveParams(cat.Store(), avModelPrefix)
	return d, nil
}

// extractExcited runs the audio DBN over the race and materializes
// excited-speech events.
func (c *Corpus) extractExcited(cat *cobra.Catalog, video string) error {
	f, err := c.features(video)
	if err != nil {
		return err
	}
	d, err := c.loadOrTrainAudio(cat)
	if err != nil {
		return err
	}
	res, err := d.Filter(f.AudioObservations(), nil)
	if err != nil {
		return err
	}
	series, err := res.MarginalSeries(NodeEA, 1)
	if err != nil {
		return err
	}
	var events []cobra.Event
	for _, s := range eval.Segments(series, excitedSegConfig) {
		events = append(events, cobra.Event{
			Video: video, Type: EventExcited,
			Interval:   cobra.Interval{Start: s.Start, End: s.End},
			Confidence: meanOver(series, s.Start, s.End),
		})
	}
	if len(events) == 0 {
		events = append(events, cobra.Event{Video: video, Type: EventExcited,
			Interval: cobra.Interval{Start: 0, End: 0.1}, Confidence: 0})
	}
	return cat.PutEvents(video, events)
}

// extractHighlights runs the audio-visual DBN and materializes
// highlights with attributed sub-events.
func (c *Corpus) extractHighlights(cat *cobra.Catalog, video string) error {
	f, err := c.features(video)
	if err != nil {
		return err
	}
	d, err := c.loadOrTrainAV(cat)
	if err != nil {
		return err
	}
	res, err := d.Filter(f.AVObservations(true), nil)
	if err != nil {
		return err
	}
	hSeries, err := res.MarginalSeries(NodeHighlight, 1)
	if err != nil {
		return err
	}
	highlights := eval.Segments(hSeries, highlightSegConfig)
	series := map[string][]float64{}
	for _, node := range []string{NodeStart, NodeFlyOut, NodePassing} {
		s, err := res.MarginalSeries(node, 1)
		if err != nil {
			return err
		}
		series[labelOf(node)] = liftSeries(s)
	}
	var events []cobra.Event
	for _, h := range highlights {
		events = append(events, cobra.Event{
			Video: video, Type: EventHighlight,
			Interval:   cobra.Interval{Start: h.Start, End: h.End},
			Confidence: meanOver(hSeries, h.Start, h.End),
		})
	}
	attr := eval.Attribution{Series: series, StepDur: ClipDur, MinProb: 0.2}
	for _, s := range attr.Attribute(highlights) {
		events = append(events, cobra.Event{
			Video: video, Type: s.Label,
			Interval:   cobra.Interval{Start: s.Start, End: s.End},
			Confidence: meanOver(series[s.Label], s.Start, s.End),
		})
	}
	// Guarantee availability markers for every promised type.
	for _, typ := range []string{EventHighlight, EventStart, EventFlyOut, EventPassing} {
		found := false
		for _, e := range events {
			if e.Type == typ {
				found = true
				break
			}
		}
		if !found {
			events = append(events, cobra.Event{Video: video, Type: typ,
				Interval: cobra.Interval{Start: 0, End: 0.1}, Confidence: 0})
		}
	}
	return cat.PutEvents(video, events)
}

// deriveObjects materializes object-layer entities: each driver's
// appearance intervals, gathered from recognized caption mentions and
// driver-attributed events. (The paper notes that visual car tracking
// is future work — appearances come from the metadata the system can
// actually recognize.)
func (c *Corpus) deriveObjects(cat *cobra.Catalog, video string) error {
	if !cat.HasEvents(video, EventCaption) {
		if err := c.extractCaptions(cat, video); err != nil {
			return err
		}
	}
	appearances := map[string][]cobra.Interval{}
	for _, e := range cat.Events(video, EventCaption) {
		if isDriverName(e.Attr("word")) {
			// A driver caption implies the car is on screen around it.
			appearances[e.Attr("word")] = append(appearances[e.Attr("word")],
				cobra.Interval{Start: e.Interval.Start - 2, End: e.Interval.End + 4})
		}
	}
	for _, typ := range []string{EventPitStop, EventWinner} {
		for _, e := range cat.Events(video, typ) {
			if d := e.Attr("driver"); isDriverName(d) {
				appearances[d] = append(appearances[d], e.Interval)
			}
		}
	}
	// Store in name order: the rows of the appearances BAT, and with
	// them a snapshot's bytes, must not follow map iteration order.
	drivers := make([]string, 0, len(appearances))
	for driver := range appearances {
		drivers = append(drivers, driver)
	}
	sort.Strings(drivers)
	for _, driver := range drivers {
		if err := cat.PutObject(cobra.Object{
			Video: video, Name: driver, Class: "driver",
			Appearances: mergeIntervals(appearances[driver]),
		}); err != nil {
			return err
		}
	}
	if len(drivers) == 0 {
		// Availability sentinel: no recognizable objects in this video.
		return cat.PutObject(cobra.Object{Video: video, Name: "_none", Class: "none"})
	}
	return nil
}

// mergeIntervals unions overlapping intervals.
func mergeIntervals(ivs []cobra.Interval) []cobra.Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]cobra.Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	out := []cobra.Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// deriveCaptionEvents runs the rule extension over caption events: a
// PIT caption next to a driver-name caption derives a pit stop; a
// WINNER caption next to a driver name derives the winner.
func (c *Corpus) deriveCaptionEvents(cat *cobra.Catalog, video string) error {
	// The rule engine needs caption facts; materialize them first.
	if !cat.HasEvents(video, EventCaption) {
		if err := c.extractCaptions(cat, video); err != nil {
			return err
		}
	}
	store := rules.NewStore()
	for _, e := range cat.Events(video, EventCaption) {
		word := e.Attr("word")
		typ := "caption-word"
		if isDriverName(word) {
			typ = "caption-driver"
		}
		store.Assert(rules.Event{
			Type: typ, Interval: e.Interval, Confidence: e.Confidence,
			Attrs: map[string]string{"word": word},
		})
	}
	nearby := []rules.Relation{
		rules.Overlaps, rules.OverlappedBy, rules.During, rules.Contains,
		rules.Starts, rules.StartedBy, rules.Finishes, rules.FinishedBy, rules.Equals,
	}
	pitRule := rules.Rule{
		Name: "pitstop-from-captions", Produces: EventPitStop,
		Patterns: []rules.Pattern{
			{Var: "d", Type: "caption-driver", MinConfidence: 0.3},
			{Var: "p", Type: "caption-word", Attrs: map[string]string{"word": "PIT"}, MinConfidence: 0.3},
		},
		Where:     []rules.TemporalConstraint{{A: "d", B: "p", Relations: nearby}},
		CopyAttrs: map[string]string{"driver": "d.word"},
	}
	winRule := rules.Rule{
		Name: "winner-from-captions", Produces: EventWinner,
		Patterns: []rules.Pattern{
			{Var: "d", Type: "caption-driver", MinConfidence: 0.3},
			{Var: "w", Type: "caption-word", Attrs: map[string]string{"word": "WINNER"}, MinConfidence: 0.3},
		},
		Where:     []rules.TemporalConstraint{{A: "d", B: "w", Relations: nearby}},
		CopyAttrs: map[string]string{"driver": "d.word"},
	}
	en, err := rules.NewEngine(pitRule, winRule)
	if err != nil {
		return err
	}
	en.Run(store)
	var events []cobra.Event
	for _, typ := range []string{EventPitStop, EventWinner} {
		for _, e := range store.Events(typ) {
			events = append(events, cobra.Event{
				Video: video, Type: typ, Interval: e.Interval,
				Confidence: e.Confidence,
				Attrs:      map[string]string{"driver": e.Attr("driver")},
			})
		}
		found := false
		for _, e := range events {
			if e.Type == typ {
				found = true
				break
			}
		}
		if !found {
			events = append(events, cobra.Event{Video: video, Type: typ,
				Interval: cobra.Interval{Start: 0, End: 0.1}, Confidence: 0})
		}
	}
	return cat.PutEvents(video, events)
}

func isDriverName(word string) bool {
	for _, d := range synth.Drivers {
		if d == word {
			return true
		}
	}
	return false
}

func meanOver(series []float64, start, end float64) float64 {
	lo := int(start / ClipDur)
	hi := int(end / ClipDur)
	if hi > len(series) {
		hi = len(series)
	}
	if lo >= hi {
		return 0
	}
	s := 0.0
	for i := lo; i < hi; i++ {
		s += series[i]
	}
	return s / float64(hi-lo)
}
