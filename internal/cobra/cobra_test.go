package cobra

import (
	"encoding/xml"
	"errors"
	"strings"
	"testing"

	"cobra/internal/monet"
	"cobra/internal/rules"
)

func newCat(t *testing.T) *Catalog {
	t.Helper()
	return NewCatalog(monet.NewStore())
}

func TestVideoRegistry(t *testing.T) {
	c := newCat(t)
	if err := c.PutVideo(Video{Name: "german-gp", Duration: 5400, FPS: 10}); err != nil {
		t.Fatal(err)
	}
	v, err := c.Video("german-gp")
	if err != nil {
		t.Fatal(err)
	}
	if v.Duration != 5400 || v.FPS != 10 {
		t.Fatalf("video = %+v", v)
	}
	if _, err := c.Video("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Replacement keeps one entry.
	c.PutVideo(Video{Name: "german-gp", Duration: 6000, FPS: 10})
	v, _ = c.Video("german-gp")
	if v.Duration != 6000 {
		t.Fatalf("replaced duration = %v", v.Duration)
	}
	if got := c.Videos(); len(got) != 1 || got[0] != "german-gp" {
		t.Fatalf("videos = %v", got)
	}
	if err := c.PutVideo(Video{Name: "", Duration: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
}

// TestVideoEntryDecode pins the "<duration>|<fps>" entry: what %g
// writes — fractions, exponents, a live feed's inexact watermarks —
// reads back exactly, and a damaged entry is reported, not zeroed.
func TestVideoEntryDecode(t *testing.T) {
	c := newCat(t)
	for _, v := range []Video{
		{Name: "a", Duration: 30.100000000000293, FPS: 25},
		{Name: "b", Duration: 1e-7, FPS: 29.97},
		{Name: "c", Duration: 1.5e21, FPS: 0},
	} {
		if err := c.PutVideo(v); err != nil {
			t.Fatal(err)
		}
		got, err := c.Video(v.Name)
		if err != nil || got != v {
			t.Fatalf("Video(%q) = %+v, %v; want %+v", v.Name, got, err, v)
		}
	}
	for _, entry := range []string{"", "12", "12|", "|25", "12|x", "x|25", "12|25|3"} {
		b := monet.NewBAT(monet.StrT, monet.StrT)
		b.MustInsert(monet.NewStr("bad"), monet.NewStr(entry))
		if err := c.Store().Put(VideosBATName(), b); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Video("bad"); err == nil || !strings.Contains(err.Error(), "corrupt video entry") {
			t.Fatalf("entry %q: err = %v, want corrupt video entry", entry, err)
		}
	}
}

func TestFeatureRoundTrip(t *testing.T) {
	c := newCat(t)
	vals := []float64{0.1, 0.5, 0.9}
	if err := c.PutFeature(Feature{Video: "v", Name: "motion", SampleRate: 10, Values: vals}); err != nil {
		t.Fatal(err)
	}
	if !c.HasFeature("v", "motion") || c.HasFeature("v", "nope") {
		t.Fatal("HasFeature wrong")
	}
	f, err := c.Feature("v", "motion")
	if err != nil {
		t.Fatal(err)
	}
	if f.SampleRate != 10 || len(f.Values) != 3 || f.Values[1] != 0.5 {
		t.Fatalf("feature = %+v", f)
	}
	names := c.FeatureNames("v")
	if len(names) != 1 || names[0] != "motion" {
		t.Fatalf("names = %v", names)
	}
	if _, err := c.Feature("v", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestEventsRoundTrip(t *testing.T) {
	c := newCat(t)
	events := []Event{
		{Video: "v", Type: "highlight", Interval: Interval{Start: 10, End: 20}, Confidence: 0.9},
		{Video: "v", Type: "pitstop", Interval: Interval{Start: 30, End: 44}, Confidence: 1,
			Attrs: map[string]string{"driver": "BARRICHELLO"}},
		{Video: "v", Type: "highlight", Interval: Interval{Start: 50, End: 60}, Confidence: 0.7},
	}
	if err := c.PutEvents("v", events); err != nil {
		t.Fatal(err)
	}
	all := c.Events("v", "")
	if len(all) != 3 {
		t.Fatalf("all events = %d", len(all))
	}
	hl := c.Events("v", "highlight")
	if len(hl) != 2 || hl[0].Interval.Start != 10 {
		t.Fatalf("highlights = %v", hl)
	}
	ps := c.Events("v", "pitstop")
	if len(ps) != 1 || ps[0].Attr("driver") != "BARRICHELLO" {
		t.Fatalf("pitstops = %v", ps)
	}
	if !c.HasEvents("v", "highlight") || c.HasEvents("v", "nope") {
		t.Fatal("HasEvents wrong")
	}
	// Append preserves existing.
	c.PutEvents("v", []Event{{Type: "flyout", Interval: Interval{Start: 70, End: 80}, Confidence: 0.6}})
	if len(c.Events("v", "")) != 4 {
		t.Fatal("append lost events")
	}
}

func TestDropEvents(t *testing.T) {
	c := newCat(t)
	c.PutEvents("v", []Event{
		{Type: "a", Interval: Interval{Start: 1, End: 2}, Confidence: 1},
		{Type: "b", Interval: Interval{Start: 3, End: 4}, Confidence: 1},
	})
	c.DropEvents("v", "a")
	if c.HasEvents("v", "a") {
		t.Fatal("a not dropped")
	}
	if !c.HasEvents("v", "b") {
		t.Fatal("b lost")
	}
}

// TestHasEventsAllocsFlatInEvents: HasEvents reads the type column and
// stops at the first match, so it allocates no more at 50 000 events
// than at 100 — whether the type is on almost every row, only the
// last, only the first, or absent.
func TestHasEventsAllocsFlatInEvents(t *testing.T) {
	allocs := func(n int, typ string) float64 {
		c := newCat(t)
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{Type: "passing", Interval: Interval{Start: float64(i), End: float64(i) + 1}, Confidence: 1,
				Attrs: map[string]string{"driver": "HILL"}}
		}
		evs[0].Type, evs[n-1].Type = "start", "pitstop"
		if err := c.PutEvents("v", evs); err != nil {
			t.Fatal(err)
		}
		if !c.HasEvents("v", "pitstop") || !c.HasEvents("v", "start") || c.HasEvents("v", "flyout") {
			t.Fatalf("%d events: HasEvents wrong", n)
		}
		return testing.AllocsPerRun(20, func() { c.HasEvents("v", typ) })
	}
	for _, typ := range []string{"passing", "pitstop", "start", "flyout"} {
		if small, large := allocs(100, typ), allocs(50000, typ); large != small {
			t.Fatalf("HasEvents(%q): %v allocs at 50 000 events, %v at 100", typ, large, small)
		}
	}
}

func TestObjectRoundTrip(t *testing.T) {
	c := newCat(t)
	o := Object{Video: "v", Name: "SCHUMACHER", Class: "driver",
		Appearances: []Interval{{Start: 1, End: 5}, {Start: 10, End: 12}}}
	if err := c.PutObject(o); err != nil {
		t.Fatal(err)
	}
	got, err := c.Object("v", "SCHUMACHER")
	if err != nil {
		t.Fatal(err)
	}
	if got.Class != "driver" || len(got.Appearances) != 2 || got.Appearances[1].Start != 10 {
		t.Fatalf("object = %+v", got)
	}
	if _, err := c.Object("v", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCatalogSnapshotPersistence(t *testing.T) {
	store := monet.NewStore()
	c := NewCatalog(store)
	c.PutVideo(Video{Name: "v", Duration: 100, FPS: 10})
	c.PutFeature(Feature{Video: "v", Name: "motion", SampleRate: 10, Values: []float64{1, 2}})
	c.PutEvents("v", []Event{{Type: "x", Interval: Interval{Start: 1, End: 2}, Confidence: 0.5}})
	dir := t.TempDir()
	if err := store.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
	store2 := monet.NewStore()
	if err := store2.LoadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	c2 := NewCatalog(store2)
	if _, err := c2.Video("v"); err != nil {
		t.Fatal(err)
	}
	if !c2.HasFeature("v", "motion") || !c2.HasEvents("v", "x") {
		t.Fatal("snapshot lost metadata")
	}
}

// fakeExtractor provides requirements by writing stub metadata.
type fakeExtractor struct {
	name    string
	reqs    []Requirement
	cost    float64
	quality float64
	calls   *int
	fail    bool
}

func (f fakeExtractor) Name() string            { return f.name }
func (f fakeExtractor) Provides() []Requirement { return f.reqs }
func (f fakeExtractor) Cost() float64           { return f.cost }
func (f fakeExtractor) Quality() float64        { return f.quality }
func (f fakeExtractor) Extract(cat *Catalog, video string) error {
	*f.calls++
	if f.fail {
		return errors.New("boom")
	}
	for _, r := range f.reqs {
		switch r.Kind {
		case NeedFeature:
			cat.PutFeature(Feature{Video: video, Name: r.Name, SampleRate: 10, Values: []float64{0}})
		case NeedEvents:
			cat.PutEvents(video, []Event{{Type: r.Name, Interval: Interval{Start: 0, End: 1}, Confidence: 1}})
		}
	}
	return nil
}

func TestPreprocessorEnsure(t *testing.T) {
	c := newCat(t)
	c.PutVideo(Video{Name: "v", Duration: 100, FPS: 10})
	p := NewPreprocessor(c)
	calls := 0
	p.Register(fakeExtractor{name: "motion-engine", cost: 1, quality: 0.8, calls: &calls,
		reqs: []Requirement{{NeedFeature, "motion"}}})
	plan, err := p.Ensure("v", []Requirement{{NeedFeature, "motion"}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(plan.Ran) != 1 || plan.Ran[0] != "motion-engine" {
		t.Fatalf("plan = %+v calls=%d", plan, calls)
	}
	// Second Ensure finds it materialized: no extraction.
	plan, err = p.Ensure("v", []Requirement{{NeedFeature, "motion"}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(plan.Ran) != 0 || len(plan.Satisfied) != 1 {
		t.Fatalf("second plan = %+v calls=%d", plan, calls)
	}
}

func TestPreprocessorCostQualityChoice(t *testing.T) {
	c := newCat(t)
	c.PutVideo(Video{Name: "v", Duration: 100, FPS: 10})
	p := NewPreprocessor(c)
	cheapCalls, fancyCalls := 0, 0
	req := Requirement{NeedEvents, "highlight"}
	p.Register(fakeExtractor{name: "cheap", cost: 1, quality: 0.6, calls: &cheapCalls, reqs: []Requirement{req}})
	p.Register(fakeExtractor{name: "fancy", cost: 10, quality: 0.95, calls: &fancyCalls, reqs: []Requirement{req}})

	// Low quality floor: the cheap engine wins.
	if _, err := p.Ensure("v", []Requirement{req}, 0.5); err != nil {
		t.Fatal(err)
	}
	if cheapCalls != 1 || fancyCalls != 0 {
		t.Fatalf("cheap=%d fancy=%d", cheapCalls, fancyCalls)
	}
	// High quality floor on a fresh catalog: the fancy engine wins.
	c2 := newCat(t)
	c2.PutVideo(Video{Name: "v", Duration: 100, FPS: 10})
	p2 := NewPreprocessor(c2)
	cheapCalls, fancyCalls = 0, 0
	p2.Register(fakeExtractor{name: "cheap", cost: 1, quality: 0.6, calls: &cheapCalls, reqs: []Requirement{req}})
	p2.Register(fakeExtractor{name: "fancy", cost: 10, quality: 0.95, calls: &fancyCalls, reqs: []Requirement{req}})
	if _, err := p2.Ensure("v", []Requirement{req}, 0.9); err != nil {
		t.Fatal(err)
	}
	if cheapCalls != 0 || fancyCalls != 1 {
		t.Fatalf("cheap=%d fancy=%d", cheapCalls, fancyCalls)
	}
}

func TestPreprocessorBestEffortWhenUnderQuality(t *testing.T) {
	c := newCat(t)
	c.PutVideo(Video{Name: "v", Duration: 100, FPS: 10})
	p := NewPreprocessor(c)
	calls := 0
	req := Requirement{NeedFeature, "motion"}
	p.Register(fakeExtractor{name: "only", cost: 1, quality: 0.4, calls: &calls, reqs: []Requirement{req}})
	if _, err := p.Ensure("v", []Requirement{req}, 0.9); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatal("best-effort engine not used")
	}
}

func TestPreprocessorErrors(t *testing.T) {
	c := newCat(t)
	c.PutVideo(Video{Name: "v", Duration: 100, FPS: 10})
	p := NewPreprocessor(c)
	if _, err := p.Ensure("nope", nil, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown video err = %v", err)
	}
	if _, err := p.Ensure("v", []Requirement{{NeedFeature, "motion"}}, 0); !errors.Is(err, ErrNoExtractor) {
		t.Fatalf("no extractor err = %v", err)
	}
	calls := 0
	p.Register(fakeExtractor{name: "bad", cost: 1, quality: 1, calls: &calls, fail: true,
		reqs: []Requirement{{NeedFeature, "motion"}}})
	if _, err := p.Ensure("v", []Requirement{{NeedFeature, "motion"}}, 0); err == nil {
		t.Fatal("failing extractor not reported")
	}
}

func TestRequirementString(t *testing.T) {
	if (Requirement{NeedFeature, "motion"}).String() != "feature:motion" {
		t.Fatal("feature string")
	}
	if (Requirement{NeedEvents, "highlight"}).String() != "events:highlight" {
		t.Fatal("events string")
	}
}

func TestObjectsByClass(t *testing.T) {
	c := newCat(t)
	c.PutObject(Object{Video: "v", Name: "SCHUMACHER", Class: "driver",
		Appearances: []Interval{{Start: 1, End: 2}}})
	c.PutObject(Object{Video: "v", Name: "FERRARI", Class: "team"})
	drivers := c.Objects("v", "driver")
	if len(drivers) != 1 || drivers[0].Name != "SCHUMACHER" {
		t.Fatalf("drivers = %v", drivers)
	}
	if len(c.Objects("v", "")) != 2 {
		t.Fatal("all-objects query wrong")
	}
	if !c.HasObjects("v", "driver") || c.HasObjects("v", "car") {
		t.Fatal("HasObjects wrong")
	}
	if c.HasObjects("other", "") {
		t.Fatal("objects leaked across videos")
	}
}

func TestApplyRules(t *testing.T) {
	c := newCat(t)
	c.PutVideo(Video{Name: "v", Duration: 300, FPS: 10})
	c.PutEvents("v", []Event{
		{Type: "highlight", Interval: Interval{Start: 100, End: 110}, Confidence: 0.9},
		{Type: "pitstop", Interval: Interval{Start: 104, End: 118}, Confidence: 1,
			Attrs: map[string]string{"driver": "RALF"}},
	})
	rule, err := rules.ParseRule(`
RULE pit-highlight:
  h: highlight CONF >= 0.5
  p: pitstop
  h OVERLAPS|DURING|CONTAINS p
  => pit-highlight COPY driver = p.driver
`)
	if err != nil {
		t.Fatal(err)
	}
	added, err := ApplyRules(c, "v", []rules.Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d", added)
	}
	got := c.Events("v", "pit-highlight")
	if len(got) != 1 || got[0].Attr("driver") != "RALF" {
		t.Fatalf("derived = %v", got)
	}
	// Re-applying derives nothing new (idempotent materialization).
	added, err = ApplyRules(c, "v", []rules.Rule{rule})
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Fatalf("re-apply added = %d", added)
	}
	if len(c.Events("v", "pit-highlight")) != 1 {
		t.Fatal("duplicate derived events stored")
	}
}

func TestExportMPEG7(t *testing.T) {
	c := newCat(t)
	c.PutVideo(Video{Name: "v", Duration: 300, FPS: 10})
	c.PutFeature(Feature{Video: "v", Name: "dust", SampleRate: 10, Values: []float64{0, 0.5, 1}})
	c.PutEvents("v", []Event{
		{Type: "highlight", Interval: Interval{Start: 10, End: 20}, Confidence: 0.9,
			Attrs: map[string]string{"driver": "RALF"}},
		{Type: "flyout", Interval: Interval{Start: 0, End: 0.1}, Confidence: 0}, // sentinel: excluded
	})
	c.PutObject(Object{Video: "v", Name: "RALF", Class: "driver",
		Appearances: []Interval{{Start: 5, End: 25}}})
	out, err := ExportMPEG7(c, "v")
	if err != nil {
		t.Fatal(err)
	}
	// The output parses back into the document type.
	var doc MPEG7Document
	xmlBody := out[len(xml.Header):]
	if err := xml.Unmarshal(xmlBody, &doc); err != nil {
		t.Fatalf("export does not parse: %v\n%s", err, out)
	}
	if doc.Video.Name != "v" || doc.Video.Duration != 300 {
		t.Fatalf("video = %+v", doc.Video)
	}
	if len(doc.Video.Features) != 1 || doc.Video.Features[0].Max != 1 {
		t.Fatalf("features = %+v", doc.Video.Features)
	}
	if len(doc.Events) != 1 || doc.Events[0].Type != "highlight" {
		t.Fatalf("events = %+v", doc.Events)
	}
	if len(doc.Events[0].Attributes) != 1 || doc.Events[0].Attributes[0].Value != "RALF" {
		t.Fatalf("attrs = %+v", doc.Events[0].Attributes)
	}
	if len(doc.Objects) != 1 || doc.Objects[0].Class != "driver" {
		t.Fatalf("objects = %+v", doc.Objects)
	}
	if _, err := ExportMPEG7(c, "nope"); err == nil {
		t.Fatal("unknown video accepted")
	}
}
