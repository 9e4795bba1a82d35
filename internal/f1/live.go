package f1

import (
	"fmt"
	"sort"

	"cobra/internal/cobra"
	"cobra/internal/synth"
)

// LiveIngestor drives a synthetic race through the catalog as a live
// broadcast: each Step advances the synth feed and commits one live
// chunk — the feature samples of the clips that fully aired, the
// events and captions that completed, and the video's duration
// watermark — as a single atomic, write-ahead kernel batch. The commit
// is copy-on-write, so queries running concurrently see consistent
// snapshots, and all-or-nothing, so the store is always at a whole-tick
// watermark.
//
// Feature extraction runs once, up front, over the whole race — the
// pipeline is deterministic, so extracting clip-by-clip would produce
// the same values — but the ingestor reveals each clip's samples only
// after that clip has aired. Events are revealed on completion (see
// synth.Feed), so a standing query can never observe metadata from
// material that has not aired yet.
type LiveIngestor struct {
	cat   *cobra.Catalog
	video string
	feed  *synth.Feed

	series   map[string][]float64
	names    []string // sorted series names, for deterministic appends
	clips    int      // total clips in the full race
	clipRows int      // clips appended so far

	committed float64 // watermark of the last committed chunk
	err       error   // sticky: the feed is past the store, so no later Step may commit
}

// NewLiveIngestor extracts the race's features and registers the
// video as a live stream at watermark zero, with every feature series
// it airs present and empty. seed drives the simulated
// acoustic front-end, as in Options.
func NewLiveIngestor(cat *cobra.Catalog, video string, race *synth.Race, seed int64) (*LiveIngestor, error) {
	f, err := Extract(race, Options{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("f1: live extract: %w", err)
	}
	return NewLiveIngestorFrom(cat, video, f)
}

// NewLiveIngestorFrom is NewLiveIngestor over features extracted
// earlier: it airs f.Race. Extraction dominates the constructor, so
// callers that air one race into several stores (benchmarks, crash
// tests) extract once.
func NewLiveIngestorFrom(cat *cobra.Catalog, video string, f *Features) (*LiveIngestor, error) {
	series := map[string][]float64{
		"keywords": f.Keywords, "pauserate": f.PauseRate,
		"steavg": f.STEAvg, "stedyn": f.STEDyn, "stemax": f.STEMax,
		"pitchavg": f.PitchAvg, "pitchdyn": f.PitchDyn, "pitchmax": f.PitchMax,
		"mfccavg": f.MFCCAvg, "mfccmax": f.MFCCMax,
		"partofrace": f.PartOfRace, "replay": f.Replay, "colordiff": f.ColorDiff,
		"semaphore": f.Semaphore, "dust": f.Dust, "sand": f.Sand, "motion": f.Motion,
		"passing": f.Passing, "audioex": f.AudioExcitementScore(),
	}
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	// Register at one clip of duration (the catalog requires a positive
	// duration); the first Step moves the watermark to the aired time.
	if err := cat.PutVideo(cobra.Video{Name: video, Duration: ClipDur, FPS: synth.FPS}); err != nil {
		return nil, err
	}
	if err := cat.SetLive(video, true); err != nil {
		return nil, err
	}
	// Create every series the feed will air, empty and with its rate,
	// so a query or subscription arriving before the first Step reads
	// an empty series instead of a missing one.
	empty := cobra.LiveChunk{Features: make([]cobra.FeatureSamples, len(names))}
	for i, name := range names {
		empty.Features[i] = cobra.FeatureSamples{Name: name, Rate: 1 / ClipDur}
	}
	if _, err := cat.AppendLive(video, empty); err != nil {
		return nil, err
	}
	return &LiveIngestor{
		cat: cat, video: video, feed: synth.NewFeed(f.Race),
		series: series, names: names, clips: f.N,
	}, nil
}

// Video returns the live video's catalog name.
func (l *LiveIngestor) Video() string { return l.video }

// Watermark returns the aired position in seconds.
func (l *LiveIngestor) Watermark() float64 { return l.feed.Now() }

// Done reports whether the whole race has aired.
func (l *LiveIngestor) Done() bool { return l.feed.Done() }

// Step airs the next dt seconds of broadcast and commits what aired as
// one catalog chunk. It returns the new watermark. On error nothing of
// the tick was applied — the store is intact at the last committed
// watermark, which is returned instead — and the ingestor is spent:
// its feed has moved past the store, so every later Step fails too.
func (l *LiveIngestor) Step(dt float64) (watermark float64, err error) {
	if l.err != nil {
		return l.committed, l.err
	}
	ch := l.feed.Advance(dt)
	w := ch.To
	chunk := cobra.LiveChunk{Duration: w}
	// Clips fully contained in the aired prefix.
	n := int(w/ClipDur + 1e-9)
	if n > l.clips {
		n = l.clips
	}
	if n > l.clipRows {
		chunk.Features = make([]cobra.FeatureSamples, len(l.names))
		for i, name := range l.names {
			chunk.Features[i] = cobra.FeatureSamples{Name: name, Rate: 1 / ClipDur, Values: l.series[name][l.clipRows:n]}
		}
	}
	for _, e := range ch.Events {
		attrs := map[string]string{}
		if e.Driver != "" {
			attrs["driver"] = e.Driver
		}
		if e.SourceType != "" {
			attrs["source"] = string(e.SourceType)
		}
		if len(attrs) == 0 {
			attrs = nil
		}
		chunk.Events = append(chunk.Events, cobra.Event{
			Video: l.video, Type: string(e.Type),
			Interval:   cobra.Interval{Start: e.Start, End: e.End},
			Confidence: 1,
			Attrs:      attrs,
		})
	}
	for _, c := range ch.Captions {
		for _, word := range c.Words {
			chunk.Events = append(chunk.Events, cobra.Event{
				Video: l.video, Type: EventCaption,
				Interval:   cobra.Interval{Start: c.Start, End: c.End},
				Confidence: 1,
				Attrs:      map[string]string{"word": word},
			})
		}
	}
	if _, err := l.cat.AppendLive(l.video, chunk); err != nil {
		l.err = fmt.Errorf("f1: live chunk up to %.1fs: %w", w, err)
		return l.committed, l.err
	}
	l.clipRows = max(l.clipRows, n)
	l.committed = w
	return w, nil
}
