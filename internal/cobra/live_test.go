package cobra

import (
	"errors"
	"testing"

	"cobra/internal/monet"
)

// rejectingJournal refuses every record while broken is set.
type rejectingJournal struct{ broken bool }

var errLogDown = errors.New("log down")

func (j *rejectingJournal) err() error {
	if j.broken {
		return errLogDown
	}
	return nil
}
func (j *rejectingJournal) JournalPut(string, *monet.BAT) error                  { return j.err() }
func (j *rejectingJournal) JournalAppend(string, monet.Value, monet.Value) error { return j.err() }
func (j *rejectingJournal) JournalDrop(string) error                             { return j.err() }
func (j *rejectingJournal) JournalBatch(*monet.WriteBatch) error                 { return j.err() }

func liveChunk(at float64) LiveChunk {
	return LiveChunk{
		Features: []FeatureSamples{
			{Name: "motion", Rate: 10, Values: []float64{at, at + 0.1}},
			{Name: "dust", Rate: 10, Values: []float64{-at, -at}},
		},
		Events:   []Event{{Type: "passing", Interval: Interval{Start: at, End: at + 1}, Confidence: 1, Attrs: map[string]string{"driver": "schumacher"}}},
		Duration: at + 1,
	}
}

// TestAppendLiveIsOneCommit: a whole tick — series created on first
// use, events, watermark — lands through one kernel commit and reports
// where each part started.
func TestAppendLiveIsOneCommit(t *testing.T) {
	store := monet.NewStore()
	c := NewCatalog(store)
	if err := c.PutVideo(Video{Name: "live", Duration: 0.1, FPS: 10}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []LiveMarks{{FeatureRows: []int{0, 0}, EventRow: 0}, {FeatureRows: []int{2, 2}, EventRow: 1}} {
		epoch := store.Epoch(VideosBATName())
		marks, err := c.AppendLive("live", liveChunk(float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if marks.EventRow != want.EventRow || marks.FeatureRows[0] != want.FeatureRows[0] || marks.FeatureRows[1] != want.FeatureRows[1] {
			t.Fatalf("chunk %d marks = %+v, want %+v", i, marks, want)
		}
		if got := store.Epoch(VideosBATName()); got != epoch+1 {
			t.Fatalf("chunk %d moved the videos epoch by %d, want 1", i, got-epoch)
		}
	}
	if f, err := c.Feature("live", "motion"); err != nil || len(f.Values) != 4 || f.SampleRate != 10 || f.Values[3] != 1.1 {
		t.Fatalf("motion = %+v, %v", f, err)
	}
	if evs := c.Events("live", "passing"); len(evs) != 2 || evs[1].Attr("driver") != "schumacher" {
		t.Fatalf("events = %+v", evs)
	}
	if v, _ := c.Video("live"); v.Duration != 2 || v.FPS != 10 {
		t.Fatalf("video = %+v", v)
	}
	// The one-part wrappers ride the same path.
	if from, err := c.AppendFeatureSamples("live", "motion", 10, []float64{9}); err != nil || from != 4 {
		t.Fatalf("AppendFeatureSamples from %d, %v", from, err)
	}
	if from, err := c.AppendEvents("live", nil); err != nil || from != 2 {
		t.Fatalf("empty AppendEvents from %d, %v", from, err)
	}
}

// TestAppendLiveAllOrNothing: a tick with one bad part, or one the log
// refuses, changes nothing — and the catalog's writers report the
// journal's error instead of dropping it (PutVideo used to).
func TestAppendLiveAllOrNothing(t *testing.T) {
	store := monet.NewStore()
	c := NewCatalog(store)
	if err := c.PutVideo(Video{Name: "live", Duration: 0.1, FPS: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendLive("live", liveChunk(0)); err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		if f, _ := c.Feature("live", "motion"); len(f.Values) != 2 {
			t.Fatalf("%s: motion has %d rows, want 2", when, len(f.Values))
		}
		if evs := c.Events("live", ""); len(evs) != 1 {
			t.Fatalf("%s: %d events, want 1", when, len(evs))
		}
		if v, _ := c.Video("live"); v.Duration != 1 {
			t.Fatalf("%s: duration %g, want 1", when, v.Duration)
		}
	}

	// A str-tailed BAT squatting on a feature name makes one part invalid.
	if err := store.Put(FeatureBATName("live", "sand"), monet.NewBAT(monet.Void, monet.StrT)); err != nil {
		t.Fatal(err)
	}
	bad := liveChunk(1)
	bad.Features = append(bad.Features, FeatureSamples{Name: "sand", Rate: 10, Values: []float64{1}})
	if _, err := c.AppendLive("live", bad); !errors.Is(err, monet.ErrTypeMismatch) {
		t.Fatalf("chunk with a mistyped series returned %v", err)
	}
	unchanged("after an invalid chunk")

	j := &rejectingJournal{broken: true}
	store.SetJournal(j)
	if _, err := c.AppendLive("live", liveChunk(1)); !errors.Is(err, errLogDown) {
		t.Fatalf("AppendLive with the log down returned %v", err)
	}
	if err := c.SetDuration("live", 5); !errors.Is(err, errLogDown) {
		t.Fatalf("SetDuration with the log down returned %v", err)
	}
	if err := c.PutVideo(Video{Name: "other", Duration: 3, FPS: 10}); !errors.Is(err, errLogDown) {
		t.Fatalf("PutVideo with the log down returned %v", err)
	}
	if _, err := c.Video("other"); err == nil {
		t.Fatal("a video the log refused is registered")
	}
	unchanged("with the log down")

	j.broken = false
	if _, err := c.AppendLive("live", liveChunk(1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Video("live"); v.Duration != 2 {
		t.Fatalf("duration %g after the log came back, want 2", v.Duration)
	}
}
