package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
)

// config is what the command line chose for a run.
type config struct {
	Seed    int64
	Seconds float64
	Traced  bool
}

func (c config) window() time.Duration { return time.Duration(c.Seconds * float64(time.Second)) }

// boots is how many times a workload boots its server per run; setup_s
// takes the median, so one slow start does not move it.
const boots = 3

// reference is the same data the child server serves, held in this
// process: sampled replies are compared with what direct execution
// gives here, and the ladder replays statements down its layers.
type reference struct {
	store *monet.Store
	cat   *cobra.Catalog
	eng   *query.Engine
	srv   *server.Server
}

func newReference(store *monet.Store) *reference {
	cat := cobra.NewCatalog(store)
	pre := cobra.NewPreprocessor(cat)
	srv := server.New(pre, nil)
	// Serve (the ladder's middleware rung) gets the same default cache
	// as the child; Execute (the reference for replies) bypasses it.
	srv.SetCache(qcache.New(qcache.DefaultMaxBytes))
	return &reference{store: store, cat: cat, eng: query.NewEngine(pre), srv: srv}
}

// wire returns the full wire response direct execution gives.
func (r *reference) wire(line string) string {
	var b bytes.Buffer
	r.srv.Execute(line, &b)
	return b.String()
}

// wireOf rebuilds the wire response from the body lines a client read.
func wireOf(body []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OK %d\n", len(body))
	for _, l := range body {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	b.WriteString("END\n")
	return b.String()
}

// dataset is the prepared data of a closed-loop workload.
type dataset struct {
	// snapDir is served by cobra-server -db.
	snapDir string
	// store holds the same data in this process, when preparing it
	// already built it here; otherwise the snapshot is loaded after
	// the set-up clock has stopped.
	store *monet.Store
	// airedS is the broadcast seconds the data covers.
	airedS float64
	// extractS is cobra-ingest's mean extraction time per video.
	extractS float64
}

// closedSpec describes a closed-loop workload: how its data is made
// and what its connections send.
type closedSpec struct {
	name    string
	prepare func(env *environment, cfg config, dir string, res *runResult) (*dataset, error)
	next    generator
	// Every boot is warmed with the statements of warmPool, then with
	// warmStatements generated ones, before the clock starts.
	warmPool       []string
	warmStatements int
}

var adhocPaperSpec = closedSpec{
	name:           "adhoc_paper",
	prepare:        prepareAdhocPaper,
	next:           adhocPaper,
	warmPool:       paperPool,
	warmStatements: 300,
}

var kernelScanSpec = closedSpec{
	name:           "kernel_scan",
	prepare:        prepareKernelScan,
	next:           kernelScan,
	warmStatements: 60,
}

// corpusDur is the length of each of the three simulated Grand Prix
// broadcasts of adhoc_paper. The server's own default is 200 s; the
// extraction pipeline costs ~0.05 s per broadcast second on one core,
// and the driver's time cap leaves room for 100.
const (
	corpusDur   = 100
	corpusTrain = 60
	corpusEM    = 3
)

var extractedLine = regexp.MustCompile(`extracted via .* in ([0-9.]+)s`)

// prepareAdhocPaper runs the real extraction pipeline: cobra-ingest
// over the three broadcasts, written as a snapshot.
func prepareAdhocPaper(env *environment, cfg config, dir string, res *runResult) (*dataset, error) {
	snap := filepath.Join(dir, "f1db")
	flags := []string{"-out", snap, "-dur", strconv.Itoa(corpusDur), "-train", strconv.Itoa(corpusTrain), "-em", strconv.Itoa(corpusEM)}
	res.fact("cobra-ingest %s", strings.Join(flags[2:], " "))
	ing, err := startChild(env.IngestBin, flags...)
	if err != nil {
		return nil, err
	}
	defer ing.kill()
	if err := ing.wait(); err != nil {
		return nil, err
	}
	ds := &dataset{snapDir: snap, airedS: 3 * corpusDur}
	n := 0
	for _, l := range ing.output() {
		if m := extractedLine.FindStringSubmatch(l); m != nil {
			s, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return nil, fmt.Errorf("cobra-ingest line %q: %w", l, err)
			}
			ds.extractS += s
			n++
		}
	}
	if n != 3 {
		return nil, fmt.Errorf("cobra-ingest reported %d extracted videos, want 3", n)
	}
	ds.extractS /= float64(n)
	return ds, nil
}

// prepareKernelScan builds the synthetic video through the catalog's
// public API and snapshots it: four smooth feature streams of 2^20
// samples and 2000 events. Smooth streams keep result sets small, so
// a request's time is the scan, not the reply.
func prepareKernelScan(env *environment, cfg config, dir string, res *runResult) (*dataset, error) {
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	r := rand.New(rand.NewSource(cfg.Seed*1000003 + 15485863))
	dur := scanSamples / scanRate
	if err := cat.PutVideo(cobra.Video{Name: scanVideo, Duration: dur, FPS: 25}); err != nil {
		return nil, err
	}
	for f := 0; f < scanFeatures; f++ {
		// Two slow sinusoids scaled into [0, 1]. The seed sets only the
		// phases: every seed's stream has the same distribution of values
		// and the same number of threshold crossings, so a range costs the
		// same to answer whatever the seed.
		cycles := [2]float64{float64(5 + 2*f), float64(23 + 6*f)}
		phase := [2]float64{2 * math.Pi * r.Float64(), 2 * math.Pi * r.Float64()}
		vals := make([]float64, scanSamples)
		for i := range vals {
			x := 2 * math.Pi * float64(i) / scanSamples
			vals[i] = 0.5 + 0.35*math.Sin(cycles[0]*x+phase[0]) + 0.15*math.Sin(cycles[1]*x+phase[1])
		}
		if err := cat.PutFeature(cobra.Feature{Video: scanVideo, Name: scanFeature(f), SampleRate: scanRate, Values: vals}); err != nil {
			return nil, err
		}
	}
	events := make([]cobra.Event, scanEvents)
	for i := range events {
		start := dur * float64(i) / scanEvents
		events[i] = cobra.Event{
			Video: scanVideo, Type: scanEvent(r.Intn(scanEventTypes)),
			Interval:   cobra.Interval{Start: start, End: start + 1 + 9*r.Float64()},
			Confidence: 0.5 + 0.5*r.Float64(),
		}
	}
	if err := cat.PutEvents(scanVideo, events); err != nil {
		return nil, err
	}
	snap := filepath.Join(dir, "synthdb")
	if err := store.Snapshot(snap); err != nil {
		return nil, err
	}
	res.fact("synthetic video: %d streams x %d samples, %d events", scanFeatures, scanSamples, scanEvents)
	return &dataset{snapDir: snap, store: store, airedS: dur}, nil
}

// check is one sampled exchange kept for comparison with the
// reference.
type check struct {
	line  string
	reply []string
}

// checkEvery picks the sampled share of replies: 1 %.
const checkEvery = 100

// loadOutcome is what the connections of a closed loop saw.
type loadOutcome struct {
	samples   []sample
	byClass   map[string][]time.Duration
	attempted int
	errors    []string
	checks    []check
	elapsed   time.Duration
}

// closedLoop drives one stream per client: each connection sends its
// next request only when the previous reply is complete. Every reply
// is checked for an OK frame; every hundredth is kept whole.
func closedLoop(clients []*server.Client, streams []*stmtStream, window time.Duration, log *spanLog) *loadOutcome {
	outs := make([]loadOutcome, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			o.byClass = map[string][]time.Duration{}
			for n := 0; ; n++ {
				t0 := time.Now()
				if t0.Sub(start) >= window {
					break
				}
				st := streams[i].Next()
				body, err := clients[i].Do(st.line)
				lat := time.Since(t0)
				o.attempted++
				if err != nil {
					o.errors = append(o.errors, fmt.Sprintf("%s: %v", st.line, err))
					continue
				}
				o.samples = append(o.samples, sample{at: t0.Sub(start), lat: lat})
				o.byClass[st.class] = append(o.byClass[st.class], lat)
				log.add("tcp", "", n*len(clients)+i, t0, lat, st.class)
				if n%checkEvery == 0 {
					o.checks = append(o.checks, check{st.line, body})
				}
			}
			o.elapsed = time.Since(start)
		}(i)
	}
	wg.Wait()
	all := &loadOutcome{byClass: map[string][]time.Duration{}}
	for i := range outs {
		o := &outs[i]
		all.samples = append(all.samples, o.samples...)
		all.attempted += o.attempted
		all.errors = append(all.errors, o.errors...)
		all.checks = append(all.checks, o.checks...)
		for c, ls := range o.byClass {
			all.byClass[c] = append(all.byClass[c], ls...)
		}
		if o.elapsed > all.elapsed {
			all.elapsed = o.elapsed
		}
	}
	return all
}

// warmUp is what a booted server is sent before the clock starts: every
// pool statement once (so the pool hits from the first timed request)
// and a run of fresh ones (so lazy indexes exist and code paths are
// hot).
func (spec *closedSpec) warmUp(cfg config) []stmt {
	var out []stmt
	for _, l := range spec.warmPool {
		out = append(out, stmt{l, "hit"})
	}
	st := newStream(cfg.Seed, 3, spec.next)
	for i := 0; i < spec.warmStatements; i++ {
		out = append(out, st.Next())
	}
	return out
}

// bootClosed starts the server on the snapshot and connects the load
// connections; the caller warms it up.
func bootClosed(env *environment, snapDir string) (*child, []*server.Client, error) {
	srv, addr, err := startServer(env.ServerBin, "-db", snapDir)
	if err != nil {
		return nil, nil, err
	}
	clients, err := dialN(addr, env.Conns)
	if err != nil {
		srv.kill()
		return nil, nil, err
	}
	return srv, clients, nil
}

func dialN(addr string, n int) ([]*server.Client, error) {
	var out []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(clients []*server.Client) {
	for _, c := range clients {
		_ = c.Close() // the server is about to be killed anyway
	}
}

// runClosed runs a closed-loop workload end to end.
func runClosed(env *environment, spec *closedSpec, cfg config, log *spanLog) (*runResult, error) {
	res := &runResult{Workload: spec.name, Traced: cfg.Traced, E2E: values{}, Layers: values{}}
	dir, err := env.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: the data once, then the server three times; the last
	// boot is the one the window runs against.
	t0 := time.Now()
	ds, err := spec.prepare(env, cfg, dir, res)
	if err != nil {
		return nil, err
	}
	prepS := time.Since(t0).Seconds()
	var bootS []float64
	var srv *child
	var clients []*server.Client
	for b := 0; b < boots; b++ {
		tb := time.Now()
		if srv, clients, err = bootClosed(env, ds.snapDir); err != nil {
			return nil, err
		}
		for _, s := range spec.warmUp(cfg) {
			if _, err := clients[0].Do(s.line); err != nil {
				closeAll(clients)
				srv.kill()
				return nil, fmt.Errorf("warm-up %q: %w", s.line, err)
			}
		}
		bootS = append(bootS, time.Since(tb).Seconds())
		if b < boots-1 {
			closeAll(clients)
			srv.kill()
		}
	}
	defer srv.kill()
	defer closeAll(clients)
	setupS := prepS + median(bootS)
	res.E2E["setup_s"] = setupS
	res.E2E["aired_x_realtime"] = ds.airedS / setupS
	res.fact("set-up: data %.3f s + median of boots %.3f s %v; %g broadcast s", prepS, median(bootS), roundAll(bootS), ds.airedS)
	res.fact("cobra-server -db <snapshot>; %d closed-loop connections", len(clients))
	res.Layers["cobra.extract_s"] = ds.extractS

	streams := make([]*stmtStream, len(clients))
	for i := range streams {
		streams[i] = newStream(cfg.Seed, i, spec.next)
	}
	before, err := scrape(clients[0])
	if err != nil {
		return nil, err
	}
	out := closedLoop(clients, streams, cfg.window(), log)
	after, err := scrape(clients[0])
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	ok := len(out.samples)
	res.Attempted = out.attempted
	for _, e := range out.errors {
		res.fail("%s", e)
	}
	if ok == 0 {
		return nil, fmt.Errorf("%s: no request succeeded: %v", spec.name, out.errors)
	}
	ps, drift := latencyPercentiles(out.samples, out.elapsed)
	res.E2E["qps"] = float64(ok) / out.elapsed.Seconds()
	res.E2E["p50_ms"], res.E2E["p95_ms"] = ps[0], ps[1]
	res.E2E["peak_rss_mb"] = rss
	res.fact("p99_ms %.4f over %d samples in %.2f s", ps[2], ok, out.elapsed.Seconds())
	res.fact("p50_ms of each fifth of the window in time order: %v", roundAll(drift))
	for _, class := range sortedKeys(out.byClass) {
		res.fact("class %-8s n=%-7d p50 %.1f us", class, len(out.byClass[class]), p50us(out.byClass[class]))
	}
	counterLayers(after.diff(before), float64(ok), res.Layers)

	// The same data in this process: one copy for the reference, or one
	// per store-touching rung of the ladder. The ladder goes first, on
	// untouched copies; the sampled replies are then compared with direct
	// execution on one of them.
	copies := 1
	if cfg.Traced {
		copies = ladderStores
	}
	refs := make([]*reference, copies)
	for i := range refs {
		store := ds.store
		if store == nil || i > 0 {
			store = monet.NewStore()
			if err := store.LoadSnapshot(ds.snapDir); err != nil {
				return nil, err
			}
		}
		refs[i] = newReference(store)
	}
	if cfg.Traced {
		if res.Layers["monet.rows_scanned"], err = rowsScanned(clients[0]); err != nil {
			return nil, err
		}
		// The ladder's own server: as young as the copies.
		closeAll(clients)
		srv.kill()
		ladderSrv, ladderClients, err := bootClosed(env, ds.snapDir)
		if err != nil {
			return nil, err
		}
		defer ladderSrv.kill()
		defer closeAll(ladderClients)
		if err := queryLadder(res, ladderClients[0], refs, spec.warmUp(cfg), newStream(cfg.Seed, 2, spec.next), cfg.window()/2, log); err != nil {
			return nil, err
		}
		if err := extractRate(res, cfg.Seed); err != nil {
			return nil, err
		}
	}
	for _, c := range out.checks {
		if got, want := wireOf(c.reply), refs[0].wire(c.line); got != want {
			res.fail("reply differs from direct execution: %s\n got %q\nwant %q", c.line, got, want)
		}
	}
	res.fact("%d sampled replies compared byte for byte with direct execution", len(out.checks))
	return res, nil
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
