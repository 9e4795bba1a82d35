package cobra

import (
	"errors"
	"math"

	"cobra/internal/monet"
)

// This file is the catalog's streaming-ingestion surface: live-video
// registration, the live-chunk append (one atomic, write-ahead
// monet.Store.Commit per ingest tick, copy-on-write so concurrent
// readers keep consistent snapshots), and the event tail reader the
// incremental query evaluator uses to re-scan only rows appended since
// a watermark. Feature tails are range-selected in the kernel instead
// (Catalog.FeatureRuns).

// liveBAT names the BAT recording which videos are live streams.
func liveBAT() string { return "cobra/live" }

// eventCols is the fixed column order of the decomposed event
// relation; appends and reads must agree on it.
var eventCols = []string{"type", "start", "end", "conf", "attrs"}

// EventBATName is the kernel BAT name of one column of a video's
// decomposed event relation. The "type" column's watermark counts the
// video's event rows; subscriptions track its epoch for change
// detection.
func EventBATName(video, col string) string { return eventBAT(video, col) }

// ObjectBATName is the kernel BAT name of one column of a video's
// object-layer relation.
func ObjectBATName(video, col string) string { return objectBAT(video, col) }

// VideosBATName is the kernel BAT name of the raw-layer video table;
// its epoch advances whenever a live video's duration watermark moves.
func VideosBATName() string { return videoBAT() }

// SetLive marks (or unmarks) a video as a live stream. Live videos
// bypass the query preprocessor's dynamic extraction: their metadata
// arrives continuously from the ingest feed, and running an extractor
// mid-broadcast would read material that has not aired yet.
func (c *Catalog) SetLive(video string, live bool) error {
	if video == "" {
		return errors.New("cobra: live flag needs a video")
	}
	b, err := c.store.Get(liveBAT())
	if err != nil {
		b = monet.NewBAT(monet.StrT, monet.BoolT)
	}
	b = b.Filter(func(h, _ monet.Value) bool { return h.Str() != video })
	b.MustInsert(monet.NewStr(video), monet.NewBool(live))
	return c.store.PutCtx(c.ctx(), liveBAT(), b)
}

// IsLive reports whether the video is a live stream.
func (c *Catalog) IsLive(video string) bool {
	b, err := c.store.Get(liveBAT())
	if err != nil {
		return false
	}
	v, ok := b.Find(monet.NewStr(video))
	return ok && v.Bool()
}

// FeatureSamples is the part of a live chunk that extends one feature
// time series.
type FeatureSamples struct {
	Name string
	// Rate is the series' sample rate; it is recorded when the first
	// chunk creates the series.
	Rate   float64
	Values []float64
}

// LiveChunk is everything one ingest tick adds to a live video: the
// new samples of any number of feature series, the events that
// completed, and the duration watermark (0 leaves it where it is).
type LiveChunk struct {
	Features []FeatureSamples
	Events   []Event
	Duration float64
}

// LiveMarks reports where a committed chunk landed: the row watermark
// each feature series' samples and the event rows started at.
type LiveMarks struct {
	FeatureRows []int
	EventRow    int
}

// AppendLive commits one live chunk as a single kernel batch: every
// feature series of the tick, its events and the duration watermark
// become durable (one write-ahead record, one fsync) and visible
// together, or — on any validation or journal error — not at all, so a
// crash or a failed log write can never leave the video's BATs at
// different watermarks. Series and the decomposed event relation are
// created on first use, inside the same batch. Existing rows are never
// rewritten: readers iterating a pre-append snapshot stay valid.
func (c *Catalog) AppendLive(video string, ch LiveChunk) (LiveMarks, error) {
	marks := LiveMarks{FeatureRows: make([]int, len(ch.Features))}
	if video == "" {
		return marks, errors.New("cobra: a live chunk needs a video")
	}
	var w monet.WriteBatch
	at := make([]int, len(ch.Features)) // batch entry holding each series' committed base row
	for i, f := range ch.Features {
		if f.Name == "" || f.Rate <= 0 {
			return marks, errors.New("cobra: feature samples need video, name and sample rate")
		}
		bn := featureBAT(video, f.Name)
		if !c.store.Has(bn) {
			w.Put(bn, monet.NewBAT(monet.Void, monet.FloatT))
			w.Put(bn+"/rate", rateBAT(f.Rate))
		}
		at[i] = -1
		if len(f.Values) > 0 {
			at[i] = w.AppendGroup(monet.FloatTail(bn, f.Values))
		}
	}
	evAt := -1
	if len(ch.Events) > 0 {
		evAt = c.batchEvents(&w, video, ch.Events)
	}
	if ch.Duration > 0 {
		v, err := c.Video(video)
		if err != nil {
			return marks, err
		}
		v.Duration = ch.Duration
		w.Put(videoBAT(), c.videosWith(v))
	}
	if err := c.store.Commit(c.ctx(), &w); err != nil {
		return marks, err
	}
	// An appended part started at its entry's base row; a part that
	// appended nothing "starts" where its BAT ends.
	mark := func(entry int, name string) int {
		if entry >= 0 {
			return w.Entries()[entry].Base
		}
		rows, _ := c.store.Watermark(name)
		return rows
	}
	for i, f := range ch.Features {
		marks.FeatureRows[i] = mark(at[i], featureBAT(video, f.Name))
	}
	marks.EventRow = mark(evAt, eventBAT(video, "type"))
	return marks, nil
}

// batchEvents adds the append of events to the video's decomposed
// event relation to w as one column group (dense OID heads continue
// automatically) and returns the group's first entry, or -1 when there
// are no events. Missing columns are created in the same batch.
// Columns of unequal length — the mark of a log from before batch
// commits, cut mid-chunk — are first cut back to their common prefix:
// rows past it belong to no whole tuple (EventsSince never served
// them) and would reject every later append.
func (c *Catalog) batchEvents(w *monet.WriteBatch, video string, events []Event) int {
	cols := make([]*monet.BAT, len(eventCols))
	rows := math.MaxInt // the relation's common prefix; 0 while a column is missing
	for i, col := range eventCols {
		n := 0
		if b, err := c.store.Get(eventBAT(video, col)); err == nil {
			cols[i], n = b, b.Len()
		}
		rows = min(rows, n)
	}
	types := make([]string, len(events))
	attrs := make([]string, len(events))
	starts := make([]float64, len(events))
	ends := make([]float64, len(events))
	confs := make([]float64, len(events))
	for r, e := range events {
		types[r], attrs[r] = e.Type, encodeAttrs(e.Attrs)
		starts[r], ends[r], confs[r] = e.Interval.Start, e.Interval.End, e.Confidence
	}
	group := []monet.BatchEntry{
		monet.StrTail(eventBAT(video, "type"), types),
		monet.FloatTail(eventBAT(video, "start"), starts),
		monet.FloatTail(eventBAT(video, "end"), ends),
		monet.FloatTail(eventBAT(video, "conf"), confs),
		monet.StrTail(eventBAT(video, "attrs"), attrs),
	}
	for i, b := range cols {
		switch {
		case b == nil:
			w.Put(group[i].Name, monet.NewBAT(monet.OIDT, group[i].Type))
		case b.Len() > rows:
			w.Put(group[i].Name, b.Slice(0, rows))
		}
	}
	if len(events) == 0 {
		return -1
	}
	return w.AppendGroup(group...)
}

// SetDuration moves a video's duration watermark, keeping its other
// raw-layer attributes, so queries (and NOT/window evaluation in
// particular) see the video exactly as long as it has aired. It is a
// live chunk carrying only the watermark.
func (c *Catalog) SetDuration(video string, duration float64) error {
	if duration <= 0 {
		return errors.New("cobra: video needs a name and positive duration")
	}
	_, err := c.AppendLive(video, LiveChunk{Duration: duration})
	return err
}

// AppendEvents appends event-layer entities as a live chunk carrying
// only events. It returns the event-row watermark the append started
// at.
func (c *Catalog) AppendEvents(video string, events []Event) (fromRow int, err error) {
	if video == "" {
		return 0, errors.New("cobra: events need a video")
	}
	if len(events) == 0 {
		// Nothing to append: just make sure the relation exists.
		var w monet.WriteBatch
		c.batchEvents(&w, video, nil)
		if err := c.store.Commit(c.ctx(), &w); err != nil {
			return 0, err
		}
	}
	marks, err := c.AppendLive(video, LiveChunk{Events: events})
	return marks.EventRow, err
}

// AppendFeatureSamples extends a feature time series, creating the
// series (with the given sample rate) on first append, as a live chunk
// carrying only that series. It returns the sample-row watermark the
// append started at.
func (c *Catalog) AppendFeatureSamples(video, name string, rate float64, vals []float64) (fromRow int, err error) {
	marks, err := c.AppendLive(video, LiveChunk{Features: []FeatureSamples{{Name: name, Rate: rate, Values: vals}}})
	return marks.FeatureRows[0], err
}

// EventsSince reads a video's event rows from a row watermark on, in
// row (append) order, optionally filtered by type ("" = all). upTo is
// the consistent row count the read covered — pass it back as the
// next fromRow. Unlike Events, results are NOT sorted by start time:
// callers accumulating rows across watermarks sort once at the end,
// which reproduces Events' ordering exactly.
func (c *Catalog) EventsSince(video, typ string, fromRow int) (evs []Event, upTo int) {
	cols := make([]*monet.BAT, len(eventCols))
	for i, col := range eventCols {
		b, err := c.store.Get(eventBAT(video, col))
		if err != nil {
			return nil, fromRow
		}
		cols[i] = b
	}
	// The five column BATs are fetched under separate read locks, so a
	// concurrent append may be visible in some and not others. Rows
	// below the minimum length are consistent in all snapshots
	// (copy-on-write appends never rewrite a prefix).
	upTo = cols[0].Len()
	for _, b := range cols[1:] {
		if b.Len() < upTo {
			upTo = b.Len()
		}
	}
	if fromRow < 0 {
		fromRow = 0
	}
	for i := fromRow; i < upTo; i++ {
		et := cols[0].Tail(i).Str()
		if typ != "" && et != typ {
			continue
		}
		evs = append(evs, Event{
			Video:      video,
			Type:       et,
			Interval:   Interval{Start: cols[1].Tail(i).Float(), End: cols[2].Tail(i).Float()},
			Confidence: cols[3].Tail(i).Float(),
			Attrs:      decodeAttrs(cols[4].Tail(i).Str()),
		})
	}
	return evs, upTo
}
