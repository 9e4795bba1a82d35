package stream

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/query"
	"cobra/internal/synth"
)

// atWidths runs f at kernel pool widths 1 and 2: Advance's class tasks
// run inline on a pool of one and concurrently on a pool of two.
func atWidths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, width := range []int{1, 2} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			prev := monet.SetDefaultPoolWorkers(width)
			defer monet.SetDefaultPoolWorkers(prev)
			f(t)
		})
	}
}

func (m *Manager) classCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.classes)
}

func mustSubscribe(t *testing.T, m *Manager, src string, owner any) *Subscription {
	t.Helper()
	s, err := m.Subscribe(src, owner)
	if err != nil {
		t.Fatalf("Subscribe(%q): %v", src, err)
	}
	return s
}

// oneShot renders Engine.Run of src as a response body.
func oneShot(t *testing.T, eng *query.Engine, src string) []string {
	t.Helper()
	res, err := eng.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	lines := make([]string, len(res))
	for i, r := range res {
		lines[i] = query.FormatResult(r)
	}
	return lines
}

var (
	fanoutEvents   = []string{"passing", "flyout", "pitstop", "replay", "start", "caption"}
	fanoutFeatures = []string{"audioex", "motion", "steavg", "pitchavg", "mfccavg", "keywords", "dust", "colordiff"}
	fanoutWords    = []string{"PIT", "LAP", "SCHUMACHER", "BARRICHELLO", "HAKKINEN", "MONTOYA", "WINNER", "COULTHARD"}
)

// fanoutQueries is the end-to-end benchmark's standing-query set in
// small: its five templates, params parameterisations of each, every
// one registered copies times.
func fanoutQueries(seed int64, params, copies int) []string {
	r := rand.New(rand.NewSource(seed))
	var out []string
	for tmpl := 0; tmpl < 5; tmpl++ {
		for p := 0; p < params; p++ {
			var q string
			switch tmpl {
			case 0:
				q = fmt.Sprintf("SELECT SEGMENTS FROM live-gp WHERE EVENT('%s') LAST %d S", fanoutEvents[p%len(fanoutEvents)], 10+5*p)
			case 1:
				q = fmt.Sprintf("SELECT SEGMENTS FROM live-gp WHERE FEATURE('%s') > %.3f", fanoutFeatures[p%len(fanoutFeatures)], 0.25+0.5*r.Float64())
			case 2:
				q = fmt.Sprintf("SELECT SEGMENTS FROM live-gp WHERE FEATURE('%s') > %.3f LAST 30 S", fanoutFeatures[p%len(fanoutFeatures)], 0.2+0.4*r.Float64())
			case 3:
				q = fmt.Sprintf("SELECT SEGMENTS FROM live-gp WHERE EVENT('%s') WITHIN %d OF EVENT('%s')", fanoutEvents[p%len(fanoutEvents)], 3+p, fanoutEvents[(p+1)%len(fanoutEvents)])
			case 4:
				q = fmt.Sprintf("SELECT SEGMENTS FROM live-gp WHERE TEXT CONTAINS '%s' LAST %d S", fanoutWords[p%len(fanoutWords)], 20+10*p)
			}
			for c := 0; c < copies; c++ {
				out = append(out, q)
			}
		}
	}
	return out
}

// commentary appends a tick's worth of seeded extra events ending at or
// before watermark w: a 40 s race holds two events of its own, too few
// to move an event query. Starts reach back up to 8 s, so rows arrive
// out of start order, as a long event that ends late does.
func commentary(t *testing.T, cat *cobra.Catalog, r *rand.Rand, w float64) {
	t.Helper()
	var evs []cobra.Event
	for n := r.Intn(3); n > 0; n-- {
		start := w * (1 - 0.2*r.Float64())
		if back := w - 8*r.Float64(); back > 0 && r.Intn(2) == 0 {
			start = back
		}
		ev := cobra.Event{
			Video: testVideo, Type: fanoutEvents[r.Intn(len(fanoutEvents))], Confidence: float64(r.Intn(1000)) / 1000,
			Interval: cobra.Interval{Start: start, End: start + (w-start)*r.Float64()},
			Attrs:    map[string]string{"driver": fanoutWords[2+r.Intn(4)]},
		}
		if ev.Type == query.CaptionEventType {
			ev.Attrs = map[string]string{"word": fanoutWords[r.Intn(len(fanoutWords))]}
		}
		evs = append(evs, ev)
	}
	if _, err := cat.AppendEvents(testVideo, evs); err != nil {
		t.Fatalf("AppendEvents: %v", err)
	}
}

// raceFeatures extracts the differential test's race once for both widths.
var raceFeatures = sync.OnceValues(func() (*f1.Features, error) {
	return f1.Extract(synth.GenerateRace(synth.GermanGP, 40, 42), f1.Options{Seed: 42})
})

// TestClassesMatchOneShotAndSingletons airs a seeded race (plus seeded
// commentary) under the benchmark's standing-query shapes and checks, at every watermark,
// three things that must be one: every member's latest frame, the
// one-shot result of its query, and the latest frame of a subscription
// to the same query alone in a manager of its own (a class of one, the
// unshared case). Queues are drained every tick, so Seq must be dense.
func TestClassesMatchOneShotAndSingletons(t *testing.T) {
	if testing.Short() {
		t.Skip("extracts a 40 s race")
	}
	f, err := raceFeatures()
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	atWidths(t, func(t *testing.T) {
		cat := cobra.NewCatalog(monet.NewStore())
		ing, err := f1.NewLiveIngestorFrom(cat, testVideo, f)
		if err != nil {
			t.Fatalf("NewLiveIngestorFrom: %v", err)
		}
		eng := query.NewEngine(cobra.NewPreprocessor(cat))
		shared, alone := NewManager(eng), NewManager(eng)

		const params, copies = 4, 3
		queries := fanoutQueries(7, params, copies)
		members := make([]*Subscription, len(queries))
		singles := map[string]*Subscription{}
		for i, q := range queries {
			members[i] = mustSubscribe(t, shared, q, nil)
			if singles[q] == nil {
				singles[q] = mustSubscribe(t, alone, q, nil)
			}
		}
		if got, want := shared.classCount(), 5*params; got != want {
			t.Fatalf("%d classes for %d distinct queries", got, want)
		}
		if got := alone.classCount(); got != len(singles) {
			t.Fatalf("%d singleton classes for %d queries", got, len(singles))
		}

		latest := map[*Subscription]Notification{}
		collect := func(s *Subscription) {
			for _, n := range drain(s) {
				if prev := latest[s]; n.Seq != prev.Seq+1 {
					t.Fatalf("%s (%s): seq %d follows %d", s.ID, s.Query, n.Seq, prev.Seq)
				}
				latest[s] = n
			}
		}
		frames, r := 0, rand.New(rand.NewSource(11))
		for !ing.Done() {
			w, err := ing.Step(0.7)
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			commentary(t, cat, r, w)
			frames += shared.Advance(context.Background())
			alone.Advance(context.Background())
			want := map[string][]string{}
			for i, q := range queries {
				collect(members[i])
				collect(singles[q])
				if want[q] == nil {
					want[q] = oneShot(t, eng, q)
				}
				got, single := latest[members[i]], latest[singles[q]]
				if !slices.Equal(got.Lines, want[q]) {
					t.Fatalf("w=%g %s (%s): latest frame differs from one-shot\n got %q\nwant %q", w, members[i].ID, q, got.Lines, want[q])
				}
				if !slices.Equal(got.Lines, single.Lines) || got.Seq != single.Seq || got.Watermark != single.Watermark {
					t.Fatalf("w=%g %s (%s): frame #%d at %g differs from the singleton's #%d at %g", w, members[i].ID, q,
						got.Seq, got.Watermark, single.Seq, single.Watermark)
				}
			}
		}
		nonEmpty := 0
		for _, s := range members {
			if len(latest[s].Lines) > 0 {
				nonEmpty++
			}
		}
		// The comparison means something only if results came and went.
		if frames < 5*len(members) || nonEmpty < len(members)/2 {
			t.Fatalf("%d frames to %d members, %d ending on a non-empty result: the race exercises too little", frames, len(members), nonEmpty)
		}
		for _, s := range members {
			if d := s.Dropped(); d != 0 {
				t.Fatalf("%s dropped %d frames from a drained queue", s.ID, d)
			}
		}
	})
}

// TestJoinMidStream joins a class that is fresh (no evaluation: the
// joiner's #1 is the class's current result, nobody else hears of it)
// and one that is stale (one evaluation: the members get the change
// once, the joiner gets it as #1, and the next Advance has nothing to
// add).
func TestJoinMidStream(t *testing.T) {
	atWidths(t, func(t *testing.T) {
		m, feed, eng := fixture(t)
		src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 10 S"
		ctx := context.Background()
		a := mustSubscribe(t, m, src, nil)
		for i := 0; i < 4; i++ {
			feed.step(t, 2.0)
			m.Advance(ctx)
		}
		got := drain(a)
		if len(got) != 5 {
			t.Fatalf("first member has %d frames after the snapshot and 4 ticks, want 5", len(got))
		}
		current := got[len(got)-1]

		evals := cEvals.Value()
		b := mustSubscribe(t, m, src, nil)
		if d := cEvals.Value() - evals; d != 0 {
			t.Fatalf("joining a fresh class ran %d evaluations", d)
		}
		first := drain(b)
		if len(first) != 1 || first[0].Seq != 1 || first[0].SubID != b.ID ||
			first[0].Watermark != feed.w || !slices.Equal(first[0].Lines, current.Lines) {
			t.Fatalf("joiner's frames %+v, want #1 = the class's current result %+v", first, current)
		}
		if extra := drain(a); len(extra) != 0 {
			t.Fatalf("a join pushed %d frames to an existing member", len(extra))
		}

		feed.step(t, 2.0) // the class is now stale
		evals = cEvals.Value()
		c := mustSubscribe(t, m, src, nil)
		if d := cEvals.Value() - evals; d != 1 {
			t.Fatalf("joining a stale class ran %d evaluations, want 1", d)
		}
		want := oneShot(t, eng, src)
		for _, tc := range []struct {
			s   *Subscription
			seq int
		}{{a, 6}, {b, 2}, {c, 1}} {
			fr := drain(tc.s)
			if len(fr) != 1 || fr[0].Seq != tc.seq || fr[0].Watermark != feed.w || !slices.Equal(fr[0].Lines, want) {
				t.Fatalf("%s after the stale join: %+v, want one frame #%d at %g = %q", tc.s.ID, fr, tc.seq, feed.w, want)
			}
		}
		if n := m.Advance(ctx); n != 0 {
			t.Fatalf("Advance after the join pushed %d duplicates", n)
		}
	})
}

// TestClassIdentity pins what shares an evaluation: spellings of one
// statement do, commuted operands do not (Canonical does not reorder
// them: OR's result order and every trace depend on operand order).
func TestClassIdentity(t *testing.T) {
	m, feed, _ := fixture(t)
	feed.step(t, 2.0)
	spellings := []string{
		"SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') AND FEATURE('motion') > 0.50",
		"select segments from live-gp where event('passing') and feature('motion') > .5",
		"SELECT  SEGMENTS  FROM live-gp WHERE (EVENT('passing')) AND FEATURE('motion') > 0.500",
	}
	var subs []*Subscription
	for _, src := range spellings {
		subs = append(subs, mustSubscribe(t, m, src, nil))
	}
	if got := m.classCount(); got != 1 {
		t.Fatalf("%d classes for %d spellings of one statement", got, len(spellings))
	}
	if got := gClasses.Value(); got != 1 {
		t.Fatalf("stream.classes = %d, want 1", got)
	}
	for i, s := range subs {
		if s.Query != spellings[i] {
			t.Fatalf("%s lists as %q, subscribed as %q", s.ID, s.Query, spellings[i])
		}
	}
	mustSubscribe(t, m, "SELECT SEGMENTS FROM live-gp WHERE FEATURE('motion') > 0.5 AND EVENT('passing')", nil)
	mustSubscribe(t, m, "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') OR FEATURE('motion') > 0.5", nil)
	mustSubscribe(t, m, "SELECT SEGMENTS FROM live-gp WHERE FEATURE('motion') > 0.5 OR EVENT('passing')", nil)
	if got := m.classCount(); got != 4 {
		t.Fatalf("%d classes, want 4: commuted AND/OR operands are distinct queries", got)
	}
	evals := cEvals.Value()
	feed.step(t, 2.0)
	feed.step(t, 2.0) // an odd step: motion is high again, so the AND results change too
	if n := m.Advance(context.Background()); n != 6 {
		t.Fatalf("Advance pushed %d frames to 6 subscribers", n)
	}
	if d := cEvals.Value() - evals; d != 4 {
		t.Fatalf("a tick ran %d evaluations for 4 classes", d)
	}
}

// TestSlowMemberIsAlone: a member that never reads drops from its own
// queue only; its classmates receive every frame.
func TestSlowMemberIsAlone(t *testing.T) {
	atWidths(t, func(t *testing.T) {
		m, feed, _ := fixture(t)
		m.QueueCap = 3
		src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')"
		fast1 := mustSubscribe(t, m, src, nil)
		slow := mustSubscribe(t, m, src, nil)
		fast2 := mustSubscribe(t, m, src, nil)
		const ticks = 10
		seen := map[*Subscription]int{}
		for i := 0; i < ticks; i++ {
			feed.step(t, 1.0)
			if n := m.Advance(context.Background()); n != 3 {
				t.Fatalf("tick %d pushed %d frames to 3 members", i, n)
			}
			for _, s := range []*Subscription{fast1, fast2} {
				for _, n := range drain(s) {
					if n.Seq != seen[s]+1 {
						t.Fatalf("%s: seq %d follows %d", s.ID, n.Seq, seen[s])
					}
					seen[s] = n.Seq
				}
			}
		}
		for _, s := range []*Subscription{fast1, fast2} {
			if seen[s] != ticks+1 || s.Dropped() != 0 {
				t.Fatalf("%s: %d frames, %d dropped beside a slow classmate; want %d, 0", s.ID, seen[s], s.Dropped(), ticks+1)
			}
		}
		pending := drain(slow)
		if len(pending) != 3 || slow.Dropped() != ticks+1-3 || pending[2].Seq != ticks+1 {
			t.Fatalf("slow member: %d pending, %d dropped, newest #%d; want 3, %d, #%d",
				len(pending), slow.Dropped(), pending[len(pending)-1].Seq, ticks+1-3, ticks+1)
		}
	})
}

// TestLastLeaveDeletesClass: the class goes with its last member, and a
// later subscriber to the same statement starts a new one from a fresh
// evaluation and sequence.
func TestLastLeaveDeletesClass(t *testing.T) {
	m, feed, eng := fixture(t)
	src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 10 S"
	feed.step(t, 2.0)
	a := mustSubscribe(t, m, src, nil)
	b := mustSubscribe(t, m, strings.ToLower(src), nil)
	m.Unsubscribe(a.ID)
	if got := m.classCount(); got != 1 {
		t.Fatalf("%d classes with one member left", got)
	}
	feed.step(t, 2.0)
	if n := m.Advance(context.Background()); n != 1 {
		t.Fatalf("Advance pushed %d frames to the one remaining member", n)
	}
	if fr := drain(a); len(fr) != 1 {
		t.Fatalf("the member that left holds %d frames, want only its #1", len(fr))
	}
	m.Unsubscribe(b.ID)
	if got := m.classCount(); got != 0 {
		t.Fatalf("%d classes after the last member left", got)
	}
	if got := gClasses.Value(); got != 0 {
		t.Fatalf("stream.classes = %d after the last member left", got)
	}
	feed.step(t, 2.0)
	if n := m.Advance(context.Background()); n != 0 {
		t.Fatalf("Advance over no classes pushed %d", n)
	}
	evals := cEvals.Value()
	c := mustSubscribe(t, m, src, nil)
	if d := cEvals.Value() - evals; d != 1 {
		t.Fatalf("re-subscribing ran %d evaluations, want a fresh one", d)
	}
	fr := drain(c)
	if len(fr) != 1 || fr[0].Seq != 1 || !slices.Equal(fr[0].Lines, oneShot(t, eng, src)) {
		t.Fatalf("re-subscriber's frames %+v, want #1 = one-shot", fr)
	}
}

// TestUnsubscribeOwnerDuringAdvance disconnects owners, each holding a
// member of every class, while the feed advances.
func TestUnsubscribeOwnerDuringAdvance(t *testing.T) {
	atWidths(t, func(t *testing.T) {
		m, feed, _ := fixture(t)
		feed.step(t, 1.0)
		queries := []string{
			"SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')",
			"SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 5 S",
			"SELECT SEGMENTS FROM live-gp WHERE EVENT('pitstop')",
			"SELECT SEGMENTS FROM live-gp WHERE FEATURE('motion') > 0.5",
		}
		const owners = 16
		type conn struct{ n int }
		conns := make([]*conn, owners)
		var all []*Subscription
		for i := range conns {
			conns[i] = &conn{i}
			for _, q := range queries {
				all = append(all, mustSubscribe(t, m, q, conns[i]))
			}
		}
		var wg sync.WaitGroup
		for _, s := range all {
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
		// The feed runs here (feed.step may t.Fatal); the disconnects
		// start once it is ticking and run beside it.
		done := make(chan struct{})
		for i := 0; i < 40; i++ {
			feed.step(t, 1.0)
			m.Advance(context.Background())
			if i == 0 {
				go func() {
					defer close(done)
					for _, c := range conns {
						if got := m.UnsubscribeOwner(c); got != len(queries) {
							t.Errorf("UnsubscribeOwner removed %d, want %d", got, len(queries))
						}
					}
				}()
			}
		}
		<-done
		wg.Wait() // every Next saw its queue close
		if subs, classes := len(m.List()), m.classCount(); subs != 0 || classes != 0 {
			t.Fatalf("%d subscriptions, %d classes left after every owner disconnected", subs, classes)
		}
	})
}

// TestTraceRingKeepsOneShotTraces: evaluations that find nothing new
// stay out of the trace ring, so a one-shot query's trace survives any
// number of them; a changed result is recorded under the class's first
// member with the member count.
func TestTraceRingKeepsOneShotTraces(t *testing.T) {
	m, feed, eng := fixture(t)
	feed.step(t, 1.0)
	_, root, err := eng.RunTraced("SELECT SEGMENTS FROM live-gp WHERE EVENT('passing')")
	if err != nil {
		t.Fatalf("RunTraced: %v", err)
	}
	if _, ok := obs.DefaultTraces.Get(root.TraceID()); !ok {
		t.Fatal("the one-shot query left no trace in the ring")
	}

	// No flyout ever airs, but every tick moves the event relation's
	// epoch: the class is evaluated each time and never changes.
	quiet := "SELECT SEGMENTS FROM live-gp WHERE EVENT('flyout')"
	mustSubscribe(t, m, quiet, nil)
	evals := cEvals.Value()
	for i := 0; i < 100; i++ { // more than the ring holds
		feed.step(t, 1.0)
		if n := m.Advance(context.Background()); n != 0 {
			t.Fatalf("tick %d pushed %d frames of a result that cannot change", i, n)
		}
	}
	if d := cEvals.Value() - evals; d != 100 {
		t.Fatalf("%d evaluations over 100 ticks, want 100 (the metrics count every one)", d)
	}
	if _, ok := obs.DefaultTraces.Get(root.TraceID()); !ok {
		t.Fatal("no-change evaluations evicted the one-shot trace from the ring")
	}

	src := "SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 3 S"
	first := mustSubscribe(t, m, src, nil)
	mustSubscribe(t, m, strings.ToLower(src), nil)
	feed.step(t, 1.0)
	m.Advance(context.Background())
	newest := obs.DefaultTraces.Recent()[0]
	if want := "SUBSCRIBE[" + first.ID + "] " + src; newest.Query != want || newest.Root.Attr("members") != "2" {
		t.Fatalf("newest trace %q members=%q, want %q members=2", newest.Query, newest.Root.Attr("members"), want)
	}
}
