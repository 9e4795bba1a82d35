package stream

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/query"
)

// testFeed drives a live catalog directly — events, feature samples
// and the duration watermark — without the full synthetic-race
// extraction pipeline, keeping these tests fast under -race. The
// realistic feed path is covered by the query package's equivalence
// test and the server's end-to-end acceptance test.
type testFeed struct {
	cat *cobra.Catalog
	w   float64
	n   int
}

const testVideo = "live-gp"

func fixture(t *testing.T) (*Manager, *testFeed, *query.Engine) {
	t.Helper()
	cat := cobra.NewCatalog(monet.NewStore())
	if err := cat.PutVideo(cobra.Video{Name: testVideo, Duration: 0.1, FPS: 10}); err != nil {
		t.Fatalf("PutVideo: %v", err)
	}
	if err := cat.SetLive(testVideo, true); err != nil {
		t.Fatalf("SetLive: %v", err)
	}
	eng := query.NewEngine(cobra.NewPreprocessor(cat))
	return NewManager(eng), &testFeed{cat: cat}, eng
}

// step airs dt more seconds: one fresh "passing" event, a pitstop
// every third step, 10 Hz "motion" samples alternating above/below
// 0.5 per step, then the watermark move.
func (f *testFeed) step(t *testing.T, dt float64) {
	t.Helper()
	f.n++
	from := f.w
	f.w += dt
	evs := []cobra.Event{{
		Video: testVideo, Type: "passing", Confidence: 1,
		Interval: cobra.Interval{Start: from, End: f.w},
		Attrs:    map[string]string{"driver": fmt.Sprintf("D%d", f.n)},
	}}
	if f.n%3 == 0 {
		evs = append(evs, cobra.Event{
			Video: testVideo, Type: "pitstop", Confidence: 1,
			Interval: cobra.Interval{Start: from, End: from + 1},
		})
	}
	if _, err := f.cat.AppendEvents(testVideo, evs); err != nil {
		t.Fatalf("AppendEvents: %v", err)
	}
	val := 0.9
	if f.n%2 == 0 {
		val = 0.1
	}
	samples := make([]float64, int(dt*10+0.5))
	for i := range samples {
		samples[i] = val
	}
	if _, err := f.cat.AppendFeatureSamples(testVideo, "motion", 10, samples); err != nil {
		t.Fatalf("AppendFeatureSamples: %v", err)
	}
	if err := f.cat.SetDuration(testVideo, f.w); err != nil {
		t.Fatalf("SetDuration: %v", err)
	}
}

// drain consumes every currently pending notification.
func drain(s *Subscription) []Notification {
	var out []Notification
	for {
		n, ok := s.TryNext()
		if !ok {
			return out
		}
		out = append(out, n)
	}
}

// TestRefreshPushMatchesOneShot subscribes before any material airs,
// ingests, and checks that every notification's lines are exactly what
// a one-shot execution returns at the same watermark.
func TestRefreshPushMatchesOneShot(t *testing.T) {
	m, feed, eng := fixture(t)
	src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') AND FEATURE('motion') > 0.5"
	sub, err := m.Subscribe(src, nil)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// The initial snapshot errors internally (the motion series does not
	// exist yet) so nothing is pushed; the first Advance retries.
	if init := drain(sub); len(init) != 0 {
		t.Fatalf("unexpected initial notifications: %+v", init)
	}
	q, _ := query.Parse(src)
	total := 0
	for i := 0; i < 12; i++ {
		feed.step(t, 2.0)
		m.Advance(context.Background())
		for _, n := range drain(sub) {
			total++
			want, err := eng.Execute(q)
			if err != nil {
				t.Fatalf("Execute: %v", err)
			}
			// The single-threaded loop drains after every Advance, so each
			// pushed notification was evaluated at the current watermark
			// and is directly comparable to a one-shot execution.
			if len(n.Lines) != len(want) {
				t.Fatalf("seq %d: %d lines, one-shot has %d", n.Seq, len(n.Lines), len(want))
			}
			for j, r := range want {
				if n.Lines[j] != query.FormatResult(r) {
					t.Fatalf("seq %d line %d: %q != one-shot %q", n.Seq, j, n.Lines[j], query.FormatResult(r))
				}
			}
			if n.Watermark != feed.w {
				t.Fatalf("seq %d watermark %g, feed at %g", n.Seq, n.Watermark, feed.w)
			}
		}
	}
	if total == 0 {
		t.Fatal("no notifications pushed over a whole ingest")
	}
}

// TestEpochGateSkipsUnchanged verifies that advancing with no appends
// skips re-evaluation entirely.
func TestEpochGateSkipsUnchanged(t *testing.T) {
	m, feed, _ := fixture(t)
	feed.step(t, 2.0)
	sub, err := m.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')", nil)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	drain(sub)
	before := cSkipped.Value()
	for i := 0; i < 3; i++ {
		if n := m.Advance(context.Background()); n != 0 {
			t.Fatalf("Advance with no appends pushed %d notifications", n)
		}
	}
	if got := cSkipped.Value() - before; got != 3 {
		t.Fatalf("expected 3 skipped evals, got %d", got)
	}
	if len(drain(sub)) != 0 {
		t.Fatal("notifications queued without any data change")
	}
}

// TestFanOutDeterminism subscribes many subscribers to the same query
// and checks every one receives the identical notification sequence.
func TestFanOutDeterminism(t *testing.T) {
	m, feed, _ := fixture(t)
	const n = 16
	src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 10 S"
	subs := make([]*Subscription, n)
	for i := range subs {
		s, err := m.Subscribe(src, nil)
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		subs[i] = s
	}
	got := make([][]Notification, n)
	var wg sync.WaitGroup
	for i, s := range subs {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				notif, ok := s.Next()
				if !ok {
					return
				}
				got[i] = append(got[i], notif)
			}
		}()
	}
	for i := 0; i < 10; i++ {
		feed.step(t, 2.0)
		m.Advance(context.Background())
	}
	for _, s := range subs {
		m.Unsubscribe(s.ID)
	}
	wg.Wait()
	if len(got[0]) == 0 {
		t.Fatal("no notifications delivered")
	}
	for i := 1; i < n; i++ {
		if len(got[i]) != len(got[0]) {
			t.Fatalf("subscriber %d got %d notifications, subscriber 0 got %d", i, len(got[i]), len(got[0]))
		}
		for j := range got[i] {
			a, b := got[i][j], got[0][j]
			if a.Seq != b.Seq || a.Watermark != b.Watermark || !slices.Equal(a.Lines, b.Lines) {
				t.Fatalf("subscriber %d notification %d differs from subscriber 0", i, j)
			}
		}
	}
}

// TestBoundedQueueDropsOldest pushes past the queue bound with no
// consumer and checks drop-oldest semantics and drop accounting.
func TestBoundedQueueDropsOldest(t *testing.T) {
	s := &Subscription{ID: "s1", cap: 4}
	s.cond = sync.NewCond(&s.mu)
	for i := 1; i <= 10; i++ {
		s.push(Notification{SubID: "s1", Seq: i})
	}
	if d := s.Dropped(); d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
	var seqs []int
	for {
		n, ok := s.TryNext()
		if !ok {
			break
		}
		seqs = append(seqs, n.Seq)
	}
	if fmt.Sprint(seqs) != "[7 8 9 10]" {
		t.Fatalf("surviving seqs = %v, want the newest four", seqs)
	}
}

// TestSlowSubscriberIsBounded runs a real ingest with no consumer and
// checks the queue stays bounded while drops are accounted.
func TestSlowSubscriberIsBounded(t *testing.T) {
	m, feed, _ := fixture(t)
	m.QueueCap = 3
	sub, err := m.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')", nil)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	for i := 0; i < 10; i++ {
		feed.step(t, 1.0)
		m.Advance(context.Background())
	}
	pending := drain(sub)
	if len(pending) > 3 {
		t.Fatalf("queue grew to %d, bound is 3", len(pending))
	}
	// 11 pushes happened (initial snapshot + one per changed step); all
	// but the surviving tail were dropped oldest-first.
	if got := sub.Dropped() + len(pending); got != 11 {
		t.Fatalf("dropped+delivered = %d, want 11", got)
	}
	last := pending[len(pending)-1]
	if last.Seq != 11 {
		t.Fatalf("newest surviving seq = %d, want 11", last.Seq)
	}
}

// TestUnsubscribeDuringIngest races UNSUBSCRIBE against a running
// ingest/advance loop; under -race this exercises the close-vs-push
// and close-vs-Next interleavings.
func TestUnsubscribeDuringIngest(t *testing.T) {
	m, feed, _ := fixture(t)
	const n = 12
	subs := make([]*Subscription, n)
	for i := range subs {
		s, err := m.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')", nil)
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		subs[i] = s
	}
	var wg sync.WaitGroup
	for _, s := range subs {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := s.Next(); !ok {
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			feed.step(t, 1.0)
			m.Advance(context.Background())
		}
	}()
	for _, s := range subs {
		if !m.Unsubscribe(s.ID) {
			t.Fatalf("Unsubscribe(%s) found nothing", s.ID)
		}
	}
	if m.Unsubscribe(subs[0].ID) {
		t.Fatal("double Unsubscribe succeeded")
	}
	<-done
	wg.Wait()
	if got := len(m.List()); got != 0 {
		t.Fatalf("%d subscriptions left after unsubscribing all", got)
	}
}

// TestUnsubscribeOwner checks connection-scoped cleanup.
func TestUnsubscribeOwner(t *testing.T) {
	m, feed, _ := fixture(t)
	feed.step(t, 2.0)
	type conn struct{ name string }
	a, b := &conn{"a"}, &conn{"b"}
	for i := 0; i < 3; i++ {
		if _, err := m.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')", a); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	sb, err := m.Subscribe("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')", b)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if got := m.UnsubscribeOwner(a); got != 3 {
		t.Fatalf("UnsubscribeOwner removed %d, want 3", got)
	}
	if sb.Closed() {
		t.Fatal("other owner's subscription was closed")
	}
	if got := len(m.List()); got != 1 {
		t.Fatalf("%d subscriptions left, want 1", got)
	}
}

// TestSubscribeErrors pins the error surface: bad COQL and unknown
// videos are rejected at SUBSCRIBE time.
func TestSubscribeErrors(t *testing.T) {
	m, _, _ := fixture(t)
	if _, err := m.Subscribe("SELECT NONSENSE", nil); err == nil {
		t.Fatal("bad COQL accepted")
	}
	if _, err := m.Subscribe("SELECT SEGMENTS FROM no-such-video", nil); err == nil {
		t.Fatal("unknown video accepted")
	}
}
