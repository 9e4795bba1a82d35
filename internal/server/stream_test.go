package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/query"
	"cobra/internal/stream"
	"cobra/internal/synth"
)

// liveFeed appends catalog state directly, standing in for the ingest
// loop (the realistic path is exercised by scripts/smoke.sh and the
// query package's equivalence test).
type liveFeed struct {
	cat *cobra.Catalog
	w   float64
	n   int
}

func (f *liveFeed) step(t *testing.T, dt float64) {
	t.Helper()
	f.n++
	from := f.w
	f.w += dt
	_, err := f.cat.AppendEvents("live-gp", []cobra.Event{{
		Video: "live-gp", Type: "passing", Confidence: 1,
		Interval: cobra.Interval{Start: from, End: f.w},
		Attrs:    map[string]string{"driver": fmt.Sprintf("D%d", f.n)},
	}})
	if err != nil {
		t.Fatalf("AppendEvents: %v", err)
	}
	if err := f.cat.SetDuration("live-gp", f.w); err != nil {
		t.Fatalf("SetDuration: %v", err)
	}
}

func streamServer(t *testing.T) (*Client, *stream.Manager, *liveFeed) {
	t.Helper()
	cat := cobra.NewCatalog(monet.NewStore())
	if err := cat.PutVideo(cobra.Video{Name: "live-gp", Duration: 0.1, FPS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := cat.SetLive("live-gp", true); err != nil {
		t.Fatal(err)
	}
	pre := cobra.NewPreprocessor(cat)
	srv := New(pre, nil)
	mgr := stream.NewManager(query.NewEngine(pre))
	srv.SetStream(mgr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, mgr, &liveFeed{cat: cat}
}

// TestFeatureBeforeFirstTick queries a live video that is registered
// but has not aired a tick: its feature series exist, empty, so a
// FEATURE one-shot answers OK 0 rather than not found.
func TestFeatureBeforeFirstTick(t *testing.T) {
	f, err := f1.Extract(synth.GenerateRace(synth.GermanGP, 2, 1), f1.Options{Seed: 1, SkipVideo: true})
	if err != nil {
		t.Fatal(err)
	}
	cat := cobra.NewCatalog(monet.NewStore())
	if _, err := f1.NewLiveIngestorFrom(cat, "live-gp", f); err != nil {
		t.Fatal(err)
	}
	srv := New(cobra.NewPreprocessor(cat), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	lines, err := cl.Do("COQL SELECT SEGMENTS FROM live-gp WHERE FEATURE('pitchavg') > 0.5")
	if err != nil {
		t.Fatalf("FEATURE before the first tick: %v", err)
	}
	if len(lines) != 0 {
		t.Fatalf("FEATURE before the first tick: %q, want OK 0", lines)
	}
}

// TestSubscribeOverWire is the streaming acceptance test: a standing
// SUBSCRIBE receives pushed EVENT frames, and the final frame's lines
// are byte-identical to a one-shot COQL response at the same
// watermark. The re-evaluations also appear in TRACEDUMP.
func TestSubscribeOverWire(t *testing.T) {
	cl, mgr, feed := streamServer(t)
	src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')"
	id, err := cl.Subscribe(src)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if id != "s1" {
		t.Fatalf("subscription ID = %q", id)
	}
	// Initial snapshot: no material has aired.
	ev, err := cl.NextEvent(5 * time.Second)
	if err != nil {
		t.Fatalf("initial frame: %v", err)
	}
	if ev.SubID != id || ev.Seq != 1 || len(ev.Lines) != 0 {
		t.Fatalf("initial frame = %+v", ev)
	}
	var last PushEvent
	for i := 0; i < 3; i++ {
		feed.step(t, 5.0)
		mgr.Advance(context.Background())
		last, err = cl.NextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i+2, err)
		}
		if last.Seq != i+2 || last.Watermark != feed.w {
			t.Fatalf("frame = %+v, want seq %d at watermark %g", last, i+2, feed.w)
		}
	}
	if len(last.Lines) != 3 {
		t.Fatalf("final frame has %d lines, want 3: %v", len(last.Lines), last.Lines)
	}

	// Byte-identity with a one-shot query at the same watermark, over a
	// second connection so no frames interleave.
	cl2, err := Dial(cl.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	oneShot, err := cl2.Do("COQL " + src)
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	if strings.Join(oneShot, "\n") != strings.Join(last.Lines, "\n") {
		t.Fatalf("push/one-shot mismatch:\npush:     %v\none-shot: %v", last.Lines, oneShot)
	}

	// Standing-query re-evaluations are traced.
	dump, err := cl2.Do("TRACEDUMP")
	if err != nil {
		t.Fatalf("TRACEDUMP: %v", err)
	}
	found := false
	for _, l := range dump {
		if strings.Contains(l, "SUBSCRIBE[s1] "+src) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no stream.eval trace in TRACEDUMP:\n%s", strings.Join(dump, "\n"))
	}
}

// TestUnsubscribeOverWire cancels a standing query and checks frames
// stop and foreign IDs are rejected.
func TestUnsubscribeOverWire(t *testing.T) {
	cl, mgr, feed := streamServer(t)
	id, err := cl.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := cl.NextEvent(5 * time.Second); err != nil {
		t.Fatalf("initial frame: %v", err)
	}
	if _, err := cl.Do("UNSUBSCRIBE " + id); err != nil {
		t.Fatalf("UNSUBSCRIBE: %v", err)
	}
	if _, err := cl.Do("UNSUBSCRIBE " + id); err == nil {
		t.Fatal("double UNSUBSCRIBE succeeded")
	}
	if _, err := cl.Do("UNSUBSCRIBE nope"); err == nil {
		t.Fatal("unknown ID accepted")
	}
	feed.step(t, 5.0)
	if n := mgr.Advance(context.Background()); n != 0 {
		t.Fatalf("Advance pushed %d notifications after UNSUBSCRIBE", n)
	}
	if got := len(mgr.List()); got != 0 {
		t.Fatalf("%d subscriptions left", got)
	}
}

// TestSubscriptionsListing lists active standing queries.
func TestSubscriptionsListing(t *testing.T) {
	cl, _, _ := streamServer(t)
	if _, err := cl.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if _, err := cl.NextEvent(5 * time.Second); err != nil {
		t.Fatalf("initial frame: %v", err)
	}
	out, err := cl.Do("SUBSCRIPTIONS")
	if err != nil {
		t.Fatalf("SUBSCRIPTIONS: %v", err)
	}
	if len(out) != 1 || !strings.HasPrefix(out[0], "s1 dropped=0 SELECT") {
		t.Fatalf("listing = %v", out)
	}
}

// TestDisconnectCleansSubscriptions closes a subscribed connection and
// waits for its standing queries to be dropped.
func TestDisconnectCleansSubscriptions(t *testing.T) {
	cl, mgr, _ := streamServer(t)
	if _, err := cl.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')"); err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(mgr.List()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscriptions still registered after disconnect", len(mgr.List()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamingDisabled pins the error answers without a manager.
func TestStreamingDisabled(t *testing.T) {
	_, cl := testServer(t)
	for _, cmd := range []string{"SUBSCRIBE SELECT SEGMENTS FROM v", "UNSUBSCRIBE s1", "SUBSCRIPTIONS"} {
		if _, err := cl.Do(cmd); err == nil || !strings.Contains(err.Error(), "streaming disabled") {
			t.Fatalf("%s: err = %v, want streaming disabled", cmd, err)
		}
	}
}
