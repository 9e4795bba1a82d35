// Package cobra implements the core of the Cobra video DBMS (§2): the
// four-layer video data model (raw data, features, objects, events),
// the metadata catalog that stores content abstractions in the Monet
// kernel as BATs, and the query preprocessor that checks metadata
// availability, selects extraction methods by cost and quality, and
// invokes feature/semantic extraction engines dynamically at query
// time.
package cobra

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/rules"
)

// Video is a raw-layer entry: a handle to registered video material.
type Video struct {
	// Name is the unique video identifier (e.g. "german-gp").
	Name string
	// Duration in seconds.
	Duration float64
	// FPS is the frame sampling rate of the stored feature streams.
	FPS float64
}

// Feature is a feature-layer entry: one named time series.
type Feature struct {
	Video string
	Name  string
	// SampleRate in samples per second (the paper samples at 10 Hz).
	SampleRate float64
	Values     []float64
}

// Interval re-exports the temporal interval type used across layers.
type Interval = rules.Interval

// Object is an object-layer entity: a spatial entity (driver, car)
// with the intervals in which it appears.
type Object struct {
	Video       string
	Name        string
	Class       string
	Appearances []Interval
}

// Event is an event-layer entity: a temporal concept with confidence
// and attributes.
type Event struct {
	Video      string
	Type       string
	Interval   Interval
	Confidence float64
	Attrs      map[string]string
}

// Attr returns an attribute value ("" when absent).
func (e Event) Attr(key string) string { return e.Attrs[key] }

// Catalog stores all content abstractions in a Monet store, following
// the decomposed storage model: every logical collection becomes a set
// of BATs sharing head OIDs.
type Catalog struct {
	store *monet.Store
	// tctx, when non-nil, carries the trace span of the request this
	// catalog view belongs to (see Traced); store mutations route
	// through it so journal/WAL waits are attributed to the trace.
	tctx context.Context
}

// ErrNotFound is returned for missing catalog entries.
var ErrNotFound = errors.New("cobra: not found")

// NewCatalog returns a catalog over the given kernel store.
func NewCatalog(store *monet.Store) *Catalog {
	return &Catalog{store: store}
}

// Traced returns a view of the catalog bound to the given trace span:
// same store, but mutations and selects made through the view are
// attributed to the span's trace. The preprocessor hands extractors a
// traced view so materialization shows up in the query's span tree
// without changing the Extractor interface. A nil span returns the
// catalog unchanged.
func (c *Catalog) Traced(sp *obs.Span) *Catalog {
	if sp == nil {
		return c
	}
	return &Catalog{store: c.store, tctx: obs.ContextWithSpan(context.Background(), sp)}
}

// ctx returns the trace context of this catalog view (Background for
// an untraced catalog).
func (c *Catalog) ctx() context.Context {
	if c.tctx != nil {
		return c.tctx
	}
	return context.Background()
}

// Store exposes the underlying kernel store (for snapshots and MIL
// sessions).
func (c *Catalog) Store() *monet.Store { return c.store }

// BAT name layout.
func videoBAT() string                     { return "cobra/videos" }
func featureBAT(video, name string) string { return "cobra/feature/" + video + "/" + name }
func eventBAT(video, col string) string    { return "cobra/event/" + video + "/" + col }
func objectBAT(video, col string) string   { return "cobra/object/" + video + "/" + col }

// PutVideo registers (or replaces) a raw-layer video entry.
func (c *Catalog) PutVideo(v Video) error {
	if v.Name == "" || v.Duration <= 0 {
		return errors.New("cobra: video needs a name and positive duration")
	}
	return c.store.PutCtx(c.ctx(), videoBAT(), c.videosWith(v))
}

// videosWith returns a copy of the raw-layer video table in which v
// replaces (or adds) the entry of its name.
func (c *Catalog) videosWith(v Video) *monet.BAT {
	b, err := c.store.Get(videoBAT())
	if err != nil {
		b = monet.NewBAT(monet.StrT, monet.StrT)
	}
	b = b.Filter(func(h, _ monet.Value) bool { return h.Str() != v.Name })
	b.MustInsert(monet.NewStr(v.Name), monet.NewStr(fmt.Sprintf("%g|%g", v.Duration, v.FPS)))
	return b
}

// Video returns a registered video.
func (c *Catalog) Video(name string) (Video, error) {
	b, err := c.store.Get(videoBAT())
	if err != nil {
		return Video{}, fmt.Errorf("%w: video %q", ErrNotFound, name)
	}
	v, ok := b.Find(monet.NewStr(name))
	if !ok {
		return Video{}, fmt.Errorf("%w: video %q", ErrNotFound, name)
	}
	// The entry is "<duration>|<fps>" (videosWith). Every standing and
	// one-shot evaluation decodes one, so no fmt scanner.
	d, f, _ := strings.Cut(v.Str(), "|")
	dur, err := strconv.ParseFloat(d, 64)
	if err != nil {
		return Video{}, fmt.Errorf("cobra: corrupt video entry %q: %w", name, err)
	}
	fps, err := strconv.ParseFloat(f, 64)
	if err != nil {
		return Video{}, fmt.Errorf("cobra: corrupt video entry %q: %w", name, err)
	}
	return Video{Name: name, Duration: dur, FPS: fps}, nil
}

// Videos lists registered video names.
func (c *Catalog) Videos() []string {
	b, err := c.store.Get(videoBAT())
	if err != nil {
		return nil
	}
	names := make([]string, 0, b.Len())
	for i := 0; i < b.Len(); i++ {
		names = append(names, b.Head(i).Str())
	}
	sort.Strings(names)
	return names
}

// PutFeature stores a feature time series as a [void, dbl] BAT plus a
// metadata entry.
func (c *Catalog) PutFeature(f Feature) error {
	if f.Video == "" || f.Name == "" || f.SampleRate <= 0 {
		return errors.New("cobra: feature needs video, name and sample rate")
	}
	b := monet.NewBATCap(monet.Void, monet.FloatT, len(f.Values))
	for _, v := range f.Values {
		b.MustInsert(monet.VoidValue(), monet.NewFloat(v))
	}
	if err := c.store.PutCtx(c.ctx(), featureBAT(f.Video, f.Name), b); err != nil {
		return err
	}
	return c.store.PutCtx(c.ctx(), featureBAT(f.Video, f.Name)+"/rate", rateBAT(f.SampleRate))
}

func rateBAT(rate float64) *monet.BAT {
	b := monet.NewBAT(monet.Void, monet.FloatT)
	b.MustInsert(monet.VoidValue(), monet.NewFloat(rate))
	return b
}

// HasFeature reports whether the feature is materialized.
func (c *Catalog) HasFeature(video, name string) bool {
	return c.store.Has(featureBAT(video, name))
}

// Feature loads a stored feature series.
func (c *Catalog) Feature(video, name string) (Feature, error) {
	b, err := c.store.Get(featureBAT(video, name))
	if err != nil {
		return Feature{}, fmt.Errorf("%w: feature %s/%s", ErrNotFound, video, name)
	}
	rb, err := c.store.Get(featureBAT(video, name) + "/rate")
	if err != nil || rb.Len() == 0 {
		return Feature{}, fmt.Errorf("cobra: feature %s/%s missing sample rate", video, name)
	}
	f := Feature{Video: video, Name: name, SampleRate: rb.Tail(0).Float()}
	f.Values = make([]float64, b.Len())
	for i := 0; i < b.Len(); i++ {
		f.Values[i] = b.Tail(i).Float()
	}
	return f, nil
}

// FeatureMeta returns the sample rate and sample count of a
// materialized feature without loading its values.
func (c *Catalog) FeatureMeta(video, name string) (rate float64, n int, err error) {
	b, err := c.store.Get(featureBAT(video, name))
	if err != nil {
		return 0, 0, fmt.Errorf("%w: feature %s/%s", ErrNotFound, video, name)
	}
	rb, err := c.store.Get(featureBAT(video, name) + "/rate")
	if err != nil || rb.Len() == 0 {
		return 0, 0, fmt.Errorf("cobra: feature %s/%s missing sample rate", video, name)
	}
	return rb.Tail(0).Float(), b.Len(), nil
}

// FeatureSelect returns the ascending sample positions whose value
// lies in [lo, hi], routed through the kernel's adaptive access paths
// (zone map or scan, chosen by the store's access-path gate), along
// with the access path taken.
func (c *Catalog) FeatureSelect(video, name string, lo, hi float64) ([]int, *monet.AccessInfo, error) {
	return c.FeatureSelectCtx(c.ctx(), video, name, lo, hi)
}

// FeatureSelectCtx is FeatureSelect under a trace context: the kernel
// select records its access-path decision and morsel spans into the
// trace carried by ctx.
func (c *Catalog) FeatureSelectCtx(ctx context.Context, video, name string, lo, hi float64) ([]int, *monet.AccessInfo, error) {
	return c.store.SelectPositionsCtx(ctx, featureBAT(video, name), monet.NewFloat(lo), monet.NewFloat(hi))
}

// FeatureRunsCtx range-selects a feature series through the kernel's
// fused pipeline and returns the qualifying sample positions as
// maximal runs instead of a position slice: on the fused path no
// intermediate position list is materialized at all. The FusedInfo
// reports whether fusion ran and the access path taken.
func (c *Catalog) FeatureRunsCtx(ctx context.Context, video, name string, lo, hi float64) ([]monet.Run, *monet.FusedInfo, error) {
	return c.store.SelectRunsCtx(ctx, featureBAT(video, name), monet.NewFloat(lo), monet.NewFloat(hi))
}

// FeatureBATName is the kernel BAT name holding a feature series;
// EXPLAIN probes it for access plans.
func FeatureBATName(video, name string) string { return featureBAT(video, name) }

// FeatureNames lists materialized features of a video.
func (c *Catalog) FeatureNames(video string) []string {
	prefix := "cobra/feature/" + video + "/"
	var names []string
	for _, n := range c.store.Names() {
		if strings.HasPrefix(n, prefix) && !strings.HasSuffix(n, "/rate") {
			names = append(names, strings.TrimPrefix(n, prefix))
		}
	}
	return names
}

// encodeAttrs flattens an attribute map deterministically.
func encodeAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return strings.Join(parts, ";")
}

func decodeAttrs(s string) map[string]string {
	if s == "" {
		return nil
	}
	attrs := map[string]string{}
	for _, part := range strings.Split(s, ";") {
		if kv := strings.SplitN(part, "=", 2); len(kv) == 2 {
			attrs[kv[0]] = kv[1]
		}
	}
	return attrs
}

// PutEvents appends event-layer entities for a video. Events are
// decomposed into five parallel BATs sharing head OIDs.
func (c *Catalog) PutEvents(video string, events []Event) error {
	if video == "" {
		return errors.New("cobra: events need a video")
	}
	cols := map[string]*monet.BAT{}
	for _, col := range []string{"type", "start", "end", "conf", "attrs"} {
		b, err := c.store.Get(eventBAT(video, col))
		if err != nil {
			t := monet.FloatT
			if col == "type" || col == "attrs" {
				t = monet.StrT
			}
			b = monet.NewBAT(monet.OIDT, t)
		}
		cols[col] = b
	}
	next := monet.OID(cols["type"].Len())
	for _, e := range events {
		oid := monet.NewOID(next)
		next++
		cols["type"].MustInsert(oid, monet.NewStr(e.Type))
		cols["start"].MustInsert(oid, monet.NewFloat(e.Interval.Start))
		cols["end"].MustInsert(oid, monet.NewFloat(e.Interval.End))
		cols["conf"].MustInsert(oid, monet.NewFloat(e.Confidence))
		cols["attrs"].MustInsert(oid, monet.NewStr(encodeAttrs(e.Attrs)))
	}
	for col, b := range cols {
		if err := c.store.PutCtx(c.ctx(), eventBAT(video, col), b); err != nil {
			return err
		}
	}
	return nil
}

// Events returns a video's events, optionally filtered by type
// ("" = all), ordered by start time (ties keep append order, so the
// incremental tail reader reproduces this ordering exactly).
func (c *Catalog) Events(video, typ string) []Event {
	out, _ := c.EventsSince(video, typ, 0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Interval.Start < out[j].Interval.Start })
	return out
}

// HasEvents reports whether any events of the given type are
// materialized for the video.
func (c *Catalog) HasEvents(video, typ string) bool {
	return len(c.Events(video, typ)) > 0
}

// DropEvents removes all events of the given type for a video.
func (c *Catalog) DropEvents(video, typ string) {
	types, err := c.store.Get(eventBAT(video, "type"))
	if err != nil {
		return
	}
	keep := make([]int, 0, types.Len())
	for i := 0; i < types.Len(); i++ {
		if types.Tail(i).Str() != typ {
			keep = append(keep, i)
		}
	}
	evs := c.Events(video, "")
	var kept []Event
	for _, e := range evs {
		if e.Type != typ {
			kept = append(kept, e)
		}
	}
	for _, col := range []string{"type", "start", "end", "conf", "attrs"} {
		c.store.DropCtx(c.ctx(), eventBAT(video, col))
	}
	if len(kept) > 0 {
		_ = c.PutEvents(video, kept)
	}
}

// PutObject stores an object-layer entity.
func (c *Catalog) PutObject(o Object) error {
	if o.Video == "" || o.Name == "" {
		return errors.New("cobra: object needs video and name")
	}
	b, err := c.store.Get(objectBAT(o.Video, "appearances"))
	if err != nil {
		b = monet.NewBAT(monet.StrT, monet.StrT)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|", o.Class)
	for i, iv := range o.Appearances {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%g:%g", iv.Start, iv.End)
	}
	b = b.Filter(func(h, _ monet.Value) bool { return h.Str() != o.Name })
	b.MustInsert(monet.NewStr(o.Name), monet.NewStr(sb.String()))
	return c.store.PutCtx(c.ctx(), objectBAT(o.Video, "appearances"), b)
}

// Objects returns the video's object-layer entities of a class
// ("" = all).
func (c *Catalog) Objects(video, class string) []Object {
	b, err := c.store.Get(objectBAT(video, "appearances"))
	if err != nil {
		return nil
	}
	var out []Object
	for i := 0; i < b.Len(); i++ {
		o, err := c.Object(video, b.Head(i).Str())
		if err != nil {
			continue
		}
		if class == "" || o.Class == class {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// HasObjects reports whether any objects of the class are
// materialized for the video.
func (c *Catalog) HasObjects(video, class string) bool {
	return len(c.Objects(video, class)) > 0
}

// Object returns an object-layer entity.
func (c *Catalog) Object(video, name string) (Object, error) {
	b, err := c.store.Get(objectBAT(video, "appearances"))
	if err != nil {
		return Object{}, fmt.Errorf("%w: object %s/%s", ErrNotFound, video, name)
	}
	v, ok := b.Find(monet.NewStr(name))
	if !ok {
		return Object{}, fmt.Errorf("%w: object %s/%s", ErrNotFound, video, name)
	}
	parts := strings.SplitN(v.Str(), "|", 2)
	o := Object{Video: video, Name: name, Class: parts[0]}
	if len(parts) == 2 && parts[1] != "" {
		for _, ivs := range strings.Split(parts[1], ",") {
			var iv Interval
			if _, err := fmt.Sscanf(ivs, "%g:%g", &iv.Start, &iv.End); err == nil {
				o.Appearances = append(o.Appearances, iv)
			}
		}
	}
	return o, nil
}
