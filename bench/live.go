package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/stream"
	"cobra/internal/synth"
	"cobra/internal/wal"
)

// liveSpec describes a live workload: a server airing a simulated race
// as fast as it can (-feed-interval 1ms, so ticks run back to back
// once there is work per tick), standing queries on connection A, an
// open-loop reader on connection B.
type liveSpec struct {
	name    string
	walSync string
	// subs standing queries, each parameterisation registered copies
	// times.
	subs, copies int
	// step is -feed-step: broadcast seconds per tick. Fixed per
	// workload, so a tick carries the same rows on every commit.
	step float64
	// nominalX is the calibration: the broadcast seconds per wall second
	// this workload aired on the machine that wrote BENCHMARK.json. It
	// only sizes -feed-dur so that the feed lasts about -seconds there;
	// a faster tree finishes the same feed sooner and reports a higher
	// aired_x_realtime.
	nominalX float64
	// headS is where in the broadcast the window starts: safely beyond
	// what the feed airs between process start and the last SUBSCRIBE
	// acknowledgement, when ticks have little to do. Starting at a fixed
	// watermark makes every run measure the same stretch of the race,
	// with the same BAT sizes, however fast the subscriptions went in. (On
	// a box so slow that the acknowledgements come later, the window
	// starts at the first tick after them.) It is added to -feed-dur.
	headS float64
}

var liveFanoutSpec = liveSpec{name: "live_fanout", walSync: "interval", subs: 1000, copies: 10, step: 0.05, nominalX: 8.4, headS: 30}

var liveDurableSpec = liveSpec{name: "live_durable", walSync: "always", subs: 20, copies: 1, step: 0.2, nominalX: 35, headS: 14}

// readerRate is the open-loop reader's fixed request rate. A reader's
// wait depends on where in a tick its request lands, so the latency
// distribution is as wide as a tick; 100 requests a second give a 10 s
// window a thousand samples and keep the gap between requests (10 ms)
// above all but the slowest replies, so requests rarely queue behind
// each other.
const readerRate = 100

// feedSeed is the race every live run airs: the server's own default
// -feed-seed. Like the corpus of adhoc_paper the broadcast is a fixed
// input; -seed drives what is asked of it (the reader's statements and
// the standing queries' parameters). Races of different seeds differ
// in event density, which moves a tick's cost by more than any bound.
const feedSeed = 42

func (s *liveSpec) feedDur(cfg config) float64 {
	return math.Ceil(cfg.Seconds*s.nominalX + s.headS)
}

func (s *liveSpec) flags(cfg config, dataDir string) []string {
	return []string{
		"-data-dir", dataDir, "-wal-sync", s.walSync,
		"-feed", liveVideo, "-feed-dur", strconv.FormatFloat(s.feedDur(cfg), 'g', -1, 64),
		"-feed-interval", "1ms", "-feed-step", strconv.FormatFloat(s.step, 'g', -1, 64),
		"-feed-seed", strconv.Itoa(feedSeed),
	}
}

// liveBoot is one booted live server with its two connections.
type liveBoot struct {
	srv     *child
	a       *subConn       // standing queries and their frames
	b       *server.Client // the reader, scrapes and checks
	ids     []string       // subscription IDs, in standingQueries order
	queries []string
	// start is the frame that opened the window.
	start frame
}

func (lb *liveBoot) stop() {
	lb.a.close()
	_ = lb.b.Close() // the server is killed next
	lb.srv.kill()
}

// bootLive starts the server with its feed, registers the standing
// queries on connection A, warms connection B, and returns once the
// first tick beyond the head of the broadcast has been pushed after
// the last acknowledgement: the first timed operation.
func bootLive(env *environment, spec *liveSpec, cfg config, dataDir string, log *spanLog) (*liveBoot, float64, error) {
	t0 := time.Now()
	srv, addr, err := startServer(env.ServerBin, spec.flags(cfg, dataDir)...)
	if err != nil {
		return nil, 0, err
	}
	lb := &liveBoot{srv: srv, queries: standingQueries(cfg.Seed, spec.subs, spec.copies)}
	if lb.a, err = dialSub(addr, log); err != nil {
		srv.kill()
		return nil, 0, err
	}
	if lb.b, err = server.Dial(addr); err != nil {
		lb.a.close()
		srv.kill()
		return nil, 0, err
	}
	fail := func(err error) (*liveBoot, float64, error) {
		lb.stop()
		return nil, 0, err
	}
	for _, q := range lb.queries {
		body, err := lb.a.do("SUBSCRIBE " + q)
		if err != nil || len(body) != 1 {
			return fail(fmt.Errorf("SUBSCRIBE %s: %q %v", q, body, err))
		}
		lb.ids = append(lb.ids, body[0])
	}
	warm := newStream(cfg.Seed, 3, liveReader)
	for i := 0; i < 20; i++ {
		if _, err := lb.b.Do(warm.Next().line); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	lb.a.openWindow(spec.headS)
	deadline := time.Now().Add(30 * time.Second)
	for {
		start, ok, err := lb.a.windowStart()
		switch {
		case err != nil:
			return fail(fmt.Errorf("reading frames: %w", err))
		case ok:
			lb.start = start
			return lb, start.At.Sub(t0).Seconds(), nil
		case time.Now().After(deadline):
			return fail(errors.New("no tick pushed within 30 s of the last SUBSCRIBE"))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// readerOutcome is what the open-loop reader saw.
type readerOutcome struct {
	samples   []sample
	attempted int
	errors    []string
	lateness  []float64 // ms the generator started each request after it was due
}

// openLoop sends one request every 1/readerRate seconds on a fixed
// schedule until stop is closed, however long replies take; latency
// runs from the due time, so a stall is charged to every request it
// delays.
func openLoop(c *server.Client, st *stmtStream, start time.Time, stop <-chan struct{}, log *spanLog) *readerOutcome {
	o := &readerOutcome{}
	gap := time.Second / readerRate
	for n := 0; ; n++ {
		due := start.Add(time.Duration(n) * gap)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return o
			case <-time.After(d):
			}
		}
		select {
		case <-stop:
			return o
		default:
		}
		s := st.Next()
		sent := time.Now()
		_, err := c.Do(s.line)
		done := time.Now()
		o.attempted++
		if err != nil {
			o.errors = append(o.errors, fmt.Sprintf("%s: %v", s.line, err))
			continue
		}
		o.samples = append(o.samples, sample{at: due.Sub(start), lat: done.Sub(due)})
		o.lateness = append(o.lateness, float64(sent.Sub(due))/float64(time.Millisecond))
		log.add("tcp", "", n, due, done.Sub(due), s.class)
	}
}

// runLive runs a live workload end to end.
func runLive(env *environment, spec *liveSpec, cfg config, log *spanLog) (*runResult, error) {
	res := &runResult{Workload: spec.name, Traced: cfg.Traced, E2E: values{}, Layers: values{}}
	dir, err := env.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up happens once: the server extracts the whole race's features
	// at boot (~0.05 s per broadcast second on one core), so every boot
	// would pay seconds of the same deterministic work again.
	dataDir := filepath.Join(dir, "data")
	lb, setupS, err := bootLive(env, spec, cfg, dataDir, log)
	if err != nil {
		return nil, err
	}
	defer lb.stop()
	res.E2E["setup_s"] = setupS
	dur := spec.feedDur(cfg)
	res.fact("cobra-server %s", strings.Join(spec.flags(cfg, "<tmp>"), " "))
	res.fact("calibration: -feed-step %g fixed; -feed-dur %g = seconds x %g (nominal x realtime) + %g head", spec.step, dur, spec.nominalX, spec.headS)
	res.fact("%d standing queries in %d canonical classes on connection A; reader at %d req/s on connection B", len(lb.queries), len(lb.queries)/spec.copies, readerRate)

	// The window: from the first new watermark after the last
	// acknowledgement until the feed has fully aired.
	w0, t0 := lb.start.Watermark, lb.start.At
	stopReader := make(chan struct{})
	readerDone := make(chan *readerOutcome, 1)
	go func() { readerDone <- openLoop(lb.b, newStream(cfg.Seed, 1, liveReader), t0, stopReader, log) }()
	done, err := lb.srv.waitLine("fully aired at ", time.Duration(cfg.Seconds*4)*time.Second+20*time.Second)
	close(stopReader)
	rd := <-readerDone
	if err != nil {
		return nil, err
	}
	t1 := done.at
	window := t1.Sub(t0)
	aired := dur - w0
	if window <= 0 || aired <= 0 {
		return nil, fmt.Errorf("the feed ended before the window began (first watermark %g of %g s): raise headS", w0, dur)
	}
	res.E2E["aired_x_realtime"] = aired / window.Seconds()
	ticks := aired / spec.step
	res.fact("window: %.1f broadcast s (%.0f ticks) from watermark %g in %.3f s; tick %.3f ms", aired, ticks, w0, window.Seconds(), 1000*window.Seconds()/ticks)

	// Quiescence: the last pushes are still in flight when the feed
	// loop reports the end.
	for lb.a.quietFor() < 300*time.Millisecond || time.Since(t1) < 300*time.Millisecond {
		time.Sleep(20 * time.Millisecond)
	}

	// The reader.
	res.Attempted += rd.attempted
	for _, e := range rd.errors {
		res.fail("%s", e)
	}
	if len(rd.samples) == 0 {
		return nil, fmt.Errorf("%s: no reader request succeeded: %v", spec.name, rd.errors)
	}
	ps, drift := latencyPercentiles(rd.samples, window)
	res.E2E["qps"] = float64(len(rd.samples)) / window.Seconds()
	res.E2E["p50_ms"], res.E2E["p95_ms"] = ps[0], ps[1]
	sort.Float64s(rd.lateness)
	res.fact("reader: p99_ms %.4f over %d samples; generator lateness p50 %.3f ms, p99 %.3f ms", ps[2], len(rd.samples), percentile(rd.lateness, 50), percentile(rd.lateness, 99))
	res.fact("reader p50_ms of each fifth of the window in time order: %v", roundAll(drift))

	after, err := scrape(lb.b)
	if err != nil {
		return nil, err
	}
	rss, err := lb.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.E2E["peak_rss_mb"] = rss

	// Every subscription's last frame against the one-shot SELECT at
	// the final watermark, one SELECT per distinct statement.
	oneShot := map[string][]string{}
	lb.a.mu.Lock()
	last, received, gaps := lb.a.last, lb.a.received, lb.a.gaps
	lb.a.mu.Unlock()
	for i, q := range lb.queries {
		want, ok := oneShot[q]
		if !ok {
			if want, err = lb.b.Do(q); err != nil {
				return nil, fmt.Errorf("one-shot %s: %w", q, err)
			}
			oneShot[q] = want
		}
		res.Attempted++
		got, ok := last[lb.ids[i]]
		if !ok {
			res.fail("subscription %s (%s) never pushed a frame", lb.ids[i], q)
		} else if strings.Join(got.Lines, "\n") != strings.Join(want, "\n") {
			res.fail("subscription %s last frame (watermark %g) differs from one-shot %s:\n got %q\nwant %q", lb.ids[i], got.Watermark, q, got.Lines, want)
		}
	}
	// Dropped frames are failures: the server counts them per
	// subscription, the sequence numbers show them as gaps.
	dropped := int(after["subscriptions.dropped"])
	if gaps > dropped {
		dropped = gaps
	}
	res.Attempted += received + dropped
	for i := 0; i < dropped; i++ {
		res.fail("%d frames dropped from subscriber queues", dropped)
	}
	res.fact("%d frames received, %d dropped; %d last frames compared with one-shot results at watermark %g", received, dropped, len(lb.queries), dur)

	// The counters cover the server's whole life, not the window: the
	// scrape before would itself run beside the feed. Per-tick figures
	// divide by every tick the feed ran.
	allTicks := dur / spec.step
	counterLayers(after, allTicks, res.Layers)
	res.Layers["wal.bytes_per_user_byte"] = per(after["wal.bytes"], userBytes(dur))
	res.Layers["server.push_span_ms"] = lb.a.pushSpanMs()

	if cfg.Traced {
		if res.Layers["monet.rows_scanned"], err = rowsScanned(lb.b); err != nil {
			return nil, err
		}
	}

	// kill -9, restart on the same directory without a feed: every
	// feature BAT must hold exactly the rows of the acknowledged
	// watermark. Under -wal-sync interval the tail may be lost, so only
	// the durable workload asserts it.
	lb.stop()
	recS, err := checkRecovery(env, spec, dataDir, dur, res)
	if err != nil {
		return nil, err
	}
	res.Layers["wal.recovery_s"] = recS

	if cfg.Traced {
		if err := liveLadder(res, spec, cfg, filepath.Join(dir, "ladder"), w0, log); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkRecovery restarts a killed server on its data directory and
// compares every feature BAT's row count with the watermark.
func checkRecovery(env *environment, spec *liveSpec, dataDir string, watermark float64, res *runResult) (float64, error) {
	t0 := time.Now()
	srv, addr, err := startServer(env.ServerBin, "-data-dir", dataDir, "-wal-sync", spec.walSync)
	if err != nil {
		return 0, fmt.Errorf("restart after kill -9: %w", err)
	}
	defer srv.kill()
	restartS := time.Since(t0).Seconds()
	rec, err := srv.waitLine("recovered ", time.Second)
	if err != nil {
		return 0, err
	}
	c, err := server.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	st, err := c.Do("STATS")
	if err != nil {
		return 0, err
	}
	stats := counters{}
	parseStats(st, stats)
	want := int(watermark/f1.ClipDur + 1e-9)
	short := 0
	for _, name := range f1.FeatureNames {
		body, err := c.Do(fmt.Sprintf(`MIL bat("%s").count;`, cobra.FeatureBATName(liveVideo, name)))
		got := -1
		if err == nil && len(body) == 1 {
			got, _ = strconv.Atoi(strings.TrimSpace(body[0]))
		}
		if spec.walSync == "always" {
			res.Attempted++
			if got != want {
				res.fail("after kill -9 and restart, %s has %d rows, the acknowledged watermark %g needs %d", name, got, watermark, want)
			}
		} else if got < want {
			short++
		}
	}
	res.fact("restart after kill -9: %s; listening after %.3f s; %d of %d feature BATs short of watermark %g (asserted only under -wal-sync always)",
		rec.text, restartS, short, len(f1.FeatureNames), watermark)
	return stats["wal.recovery_ns"] / 1e9, nil
}

// userBytes is what a user appended by the time dur seconds of the race
// have aired: 8 bytes per feature sample, and per event its interval,
// confidence, type and attributes.
func userBytes(dur float64) float64 {
	ch := synth.NewFeed(synth.GenerateRace(synth.GermanGP, dur, feedSeed)).Advance(dur)
	n := float64(int(dur/f1.ClipDur+1e-9) * len(f1.FeatureNames) * 8)
	for _, e := range ch.Events {
		n += float64(3*8 + len(e.Type) + len(e.Driver) + len(e.SourceType))
	}
	for _, c := range ch.Captions {
		for _, w := range c.Words {
			n += float64(3*8 + len(f1.EventCaption) + len(w))
		}
	}
	return n
}

// liveLadder replays the feed in this process down the ingest path:
// LiveIngestor.Step with and without a journal, Manager.Advance at the
// workload's subscription count, and fills the ingest-side per-layer
// metrics and the budget table.
func liveLadder(res *runResult, spec *liveSpec, cfg config, walDir string, w0 float64, log *spanLog) error {
	policy, err := wal.ParseSyncPolicy(spec.walSync)
	if err != nil {
		return err
	}
	store := monet.NewStore()
	mgr, err := wal.Open(walDir, store, wal.Options{Sync: policy})
	if err != nil {
		return err
	}
	defer func() { _ = mgr.Close() }() // scratch WAL, never recovered: a failed final checkpoint loses nothing
	cat := cobra.NewCatalog(store)
	pre := cobra.NewPreprocessor(cat)
	subs := stream.NewManager(query.NewEngine(pre))

	// The replay airs at most a minute of the same race: hundreds of
	// ticks, without paying the whole extraction a second time.
	dur := spec.feedDur(cfg)
	replayDur := math.Min(dur, 60)
	t0 := time.Now()
	ing, err := f1.NewLiveIngestor(cat, liveVideo, synth.GenerateRace(synth.GermanGP, replayDur, feedSeed), feedSeed)
	if err != nil {
		return err
	}
	// NewLiveIngestor is f1.Extract plus three small catalog writes.
	res.Layers["f1.extract_s_per_race_s"] = time.Since(t0).Seconds() / replayDur
	var held []*stream.Subscription
	for _, q := range standingQueries(cfg.Seed, spec.subs, spec.copies) {
		s, err := subs.Subscribe(q, nil)
		if err != nil {
			return fmt.Errorf("ladder: subscribe %s: %w", q, err)
		}
		held = append(held, s)
	}

	ctx := context.Background()
	for tick := 0; !ing.Done(); tick++ {
		// Alternate pairs of ticks run without the journal, so both kinds
		// see the same BAT sizes and — at a step of half a clip, where only
		// every second tick completes a row — the same share of row ticks.
		mode := "journal"
		if tick/2%2 == 1 {
			mode = "no-journal"
			store.SetJournal(nil)
		}
		var stepErr error
		timed(log, "f1.LiveIngestor.Step", "", tick, mode, func() { _, stepErr = ing.Step(spec.step) })
		store.SetJournal(mgr)
		if stepErr != nil {
			return fmt.Errorf("ladder: step: %w", stepErr)
		}
		timed(log, "stream.Manager.Advance", "f1.LiveIngestor.Step", tick, "", func() { subs.Advance(ctx) })
		for _, s := range held {
			for {
				if _, ok := s.TryNext(); !ok {
					break
				}
			}
		}
	}
	// Means, not medians: ticks that complete a row and ticks that do
	// not cost different amounts, and a budget has to add up to the wall
	// time of the feed.
	withJ := meanUs(log.durations("f1.LiveIngestor.Step", "journal"))
	withoutJ := meanUs(log.durations("f1.LiveIngestor.Step", "no-journal"))
	advance := meanUs(log.durations("stream.Manager.Advance", ""))
	journal := math.Max(0, withJ-withoutJ)
	res.Layers["wal.journal_us_per_tick"] = journal
	res.Layers["monet.append_us"] = withoutJ
	res.Layers["stream.advance_ms"] = advance / 1000
	windowTicks := (dur - w0) / spec.step

	tick := 1000 * 1000 / res.E2E["aired_x_realtime"] * spec.step // us per tick in the timed window
	share := func(us float64) float64 { return 100 * per(us, tick) }
	push := res.Layers["server.push_span_ms"] * 1000
	n := len(log.durations("stream.Manager.Advance", ""))
	res.Budget = []budgetRow{
		{"(all)", "one feed tick, from aired_x_realtime", tick, tick, 100, int(windowTicks)},
		{"monet", "LiveIngestor.Step, no journal", withoutJ, withoutJ, share(withoutJ), n / 2},
		{"wal", "journal: Step with - without", withJ, journal, share(journal), n / 2},
		{"stream", "Manager.Advance", advance, advance, share(advance), n},
		{"server", "push span of one watermark (overlaps)", push, push, share(push), 0},
	}
	return nil
}
