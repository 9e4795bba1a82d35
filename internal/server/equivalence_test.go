package server

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/qcache"
	"cobra/internal/query"
)

// The paper's interactive session in miniature: the three Grands Prix,
// the event types and the feature series the adhoc_paper statements
// name.
var (
	paperVideos   = []string{"german-gp", "belgian-gp", "usa-gp"}
	paperEvents   = []string{"pitstop", "flyout", "passing", "start", "excited", "caption"}
	paperFeatures = []string{"steavg", "pitchavg", "mfccavg", "motion", "audioex", "keywords"}
)

// paperCatalog fills a catalog with every event type and feature the
// paper statements read, from a fixed seed. Interval ends and
// confidences are arbitrary floats, ties included, so the renderer's
// rounding is exercised on every path.
func paperCatalog(t *testing.T) (*cobra.Catalog, *monet.Store) {
	t.Helper()
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	r := rand.New(rand.NewSource(7))
	drivers := []string{"SCHUMACHER", "HAKKINEN", "BARRICHELLO"}
	words := []string{"PIT", "LAP", "WINNER"}
	for _, v := range paperVideos {
		if err := cat.PutVideo(cobra.Video{Name: v, Duration: 600, FPS: 10}); err != nil {
			t.Fatal(err)
		}
		evs := []cobra.Event{{Type: "highlight", Interval: cobra.Interval{Start: 12.25, End: 20.05}, Confidence: 0.0015}}
		for _, typ := range append([]string{"highlight"}, paperEvents...) {
			for i := 0; i < 12; i++ {
				start := r.Float64() * 580
				ev := cobra.Event{Type: typ, Interval: cobra.Interval{Start: start, End: start + 1 + 15*r.Float64()}, Confidence: r.Float64()}
				switch typ {
				case "pitstop":
					ev.Attrs = map[string]string{"driver": drivers[r.Intn(len(drivers))], "lap": fmt.Sprint(r.Intn(60))}
				case "caption":
					ev.Attrs = map[string]string{"word": words[r.Intn(len(words))]}
				}
				evs = append(evs, ev)
			}
		}
		if err := cat.PutEvents(v, evs); err != nil {
			t.Fatal(err)
		}
		for k, f := range paperFeatures {
			vals := make([]float64, 6000)
			for i := range vals {
				vals[i] = 0.5 + 0.45*math.Sin(float64(i)/float64(15+4*k)) + 0.05*r.Float64()
			}
			if _, err := cat.AppendFeatureSamples(v, f, 10, vals); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cat, store
}

// paperStatements generates statements in the shapes of the
// adhoc_paper mix: the 18 pool statements, fresh WITHIN, FEATURE > and
// AND NOT statements, then an empty result, ORDER BY CONFIDENCE DESC
// LIMIT, an explicit COQL verb, a parse error and an unknown video.
func paperStatements(r *rand.Rand, fresh int) []string {
	pick := func(from []string) string { return from[r.Intn(len(from))] }
	var out []string
	for _, v := range paperVideos {
		out = append(out,
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('pitstop')",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('pitstop', driver='SCHUMACHER')",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('flyout')",
			"SELECT SEGMENTS FROM "+v+" WHERE TEXT CONTAINS 'PIT'",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('highlight')",
			"SELECT SEGMENTS FROM "+v+" WHERE EVENT('highlight') ORDER BY CONFIDENCE DESC LIMIT 5",
		)
	}
	for i := 0; i < fresh; i++ {
		out = append(out,
			fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE EVENT('highlight') WITHIN %.12f OF EVENT('%s')",
				pick(paperVideos), 1+29*r.Float64(), pick(paperEvents)),
			fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %.12f",
				pick(paperVideos), pick(paperFeatures), 0.2+0.5*r.Float64()),
			fmt.Sprintf("SELECT SEGMENTS FROM %s WHERE FEATURE('%s') > %.12f AND NOT EVENT('%s')",
				pick(paperVideos), pick(paperFeatures), 0.2+0.5*r.Float64(), pick(paperEvents)),
		)
	}
	return append(out,
		"SELECT SEGMENTS FROM german-gp WHERE EVENT('no-such-event')",
		"SELECT EVENTS FROM belgian-gp WHERE EVENT('passing') ORDER BY CONFIDENCE DESC LIMIT 3",
		"COQL SELECT SEGMENTS FROM usa-gp WHERE EVENT('start') OR EVENT('excited')",
		"SELECT SEGMENTS FROM german-gp WHERE",
		"SELECT SEGMENTS FROM monaco-gp WHERE EVENT('pitstop')",
	)
}

// rawDo sends one request line and returns the response bytes as they
// arrived: one line for ERR and BUSY, else through the END line.
func rawDo(t *testing.T, conn net.Conn, r *bufio.Reader, line string) string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for {
		l, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: %v after %q", line, err, b.String())
		}
		b.WriteString(l)
		if l == "END\n" || b.Len() == len(l) && !strings.HasPrefix(l, "OK ") {
			return b.String()
		}
	}
}

// TestWireEquivalence: every statement of the generated set gets the
// same bytes from Execute with no cache, from Serve on a miss and on a
// hit, and over TCP on a miss and on a hit. Statements that answer OK
// are stored and hit; errors are never stored.
func TestWireEquivalence(t *testing.T) {
	cat, _ := paperCatalog(t)
	pre := cobra.NewPreprocessor(cat)
	plain, inproc, wire := New(pre, nil), New(pre, nil), New(pre, nil)
	inproc.SetCache(qcache.New(0))
	wire.SetCache(qcache.New(0))
	addr, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wire.Close() })
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)

	for _, line := range paperStatements(rand.New(rand.NewSource(11)), 8) {
		var want, miss, hit strings.Builder
		plain.Execute(line, &want)
		hitsBefore := inproc.Cache().Stats().Hits
		inproc.Serve(line, &miss)
		inproc.Serve(line, &hit)
		tcpMiss := rawDo(t, conn, r, line)
		tcpHit := rawDo(t, conn, r, line)
		for _, got := range []struct{ path, resp string }{
			{"Serve miss", miss.String()}, {"Serve hit", hit.String()}, {"TCP miss", tcpMiss}, {"TCP hit", tcpHit},
		} {
			if got.resp != want.String() {
				t.Fatalf("%q: %s answered\n%q\nExecute without a cache answered\n%q", line, got.path, got.resp, want.String())
			}
		}
		ok := strings.HasPrefix(want.String(), "OK ")
		if hits := inproc.Cache().Stats().Hits - hitsBefore; ok != (hits == 1) {
			t.Fatalf("%q answered %q with %d cache hits on its repeat", line, want.String(), hits)
		}
	}
	if st := wire.Cache().Stats(); st.Hits == 0 || st.Entries != inproc.Cache().Stats().Entries {
		t.Fatalf("TCP server cache %+v, in-process cache %+v", st, inproc.Cache().Stats())
	}
}

// The serving layer's core safety property: a response served through
// the cache is byte-identical to one executed fresh, at every kernel
// pool width, under concurrent appends and cache eviction pressure.
// The comparison is epoch-gated — when a dependency epoch moved
// between the two reads the data genuinely changed and the responses
// may legitimately differ; when the epochs held, any byte of
// difference is a stale serve, a torn fingerprint, or a broken
// single-flight, and the test fails.
func TestCachedUncachedEquivalence(t *testing.T) {
	queries := paperStatements(rand.New(rand.NewSource(5)), 4)
	for _, width := range []int{1, 4, 8} {
		width := width
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			prev := monet.SetDefaultPoolWorkers(width)
			defer monet.SetDefaultPoolWorkers(prev)

			cat, store := paperCatalog(t)
			srv := New(cobra.NewPreprocessor(cat), nil)
			// A deliberately small cache: entries churn out under LRU
			// pressure while the test runs, so eviction races are
			// exercised, not just the warm-hit path.
			srv.SetCache(qcache.New(8 << 10))

			deps := make(map[string][]string, len(queries))
			for _, src := range queries {
				if q, err := query.Parse(strings.TrimPrefix(src, "COQL ")); err == nil {
					deps[src] = query.DepNamesOf(q)
				}
			}

			stop := make(chan struct{})
			var writerDone sync.WaitGroup
			// Writer: events and feature samples append concurrently
			// with the reads, moving dependency epochs mid-flight.
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				rng := rand.New(rand.NewSource(int64(width)))
				// Paced so epochs move steadily through the read phase
				// without the dataset outgrowing the readers: unbounded
				// appends would make every later query scan arbitrarily
				// more rows and the test's runtime quadratic.
				for i := 0; i < 400; i++ {
					select {
					case <-stop:
						return
					default:
					}
					v := paperVideos[i%len(paperVideos)]
					start := float64(40 + i)
					cat.AppendEvents(v, []cobra.Event{{
						Type: []string{"pitstop", "highlight"}[i%2], Interval: cobra.Interval{Start: start, End: start + 2},
						Confidence: 0.5 + rng.Float64()/2,
					}})
					cat.AppendFeatureSamples(v, paperFeatures[i%len(paperFeatures)], 10, []float64{rng.Float64()})
					time.Sleep(100 * time.Microsecond)
				}
			}()

			const readers, iters = 4, 60
			errs := make(chan error, readers)
			var readerDone sync.WaitGroup
			for r := 0; r < readers; r++ {
				readerDone.Add(1)
				go func(r int) {
					defer readerDone.Done()
					rng := rand.New(rand.NewSource(int64(1000*width + r)))
					for i := 0; i < iters; i++ {
						src := queries[rng.Intn(len(queries))]
						before := qcache.Fingerprint(store, deps[src])
						var cached, fresh strings.Builder
						srv.Serve(src, &cached)  // through the pipeline (may hit)
						srv.Execute(src, &fresh) // always executes
						after := qcache.Fingerprint(store, deps[src])
						if before != after {
							continue // data moved mid-pair: no equivalence claim
						}
						if cached.String() != fresh.String() {
							errs <- fmt.Errorf("width %d query %q: cached response diverged at stable epochs:\n--- cached\n%s--- fresh\n%s",
								width, src, cached.String(), fresh.String())
							return
						}
					}
				}(r)
			}
			// Readers finish first (the writer appends until told to
			// stop), then the writer is released and drained.
			readerDone.Wait()
			close(stop)
			writerDone.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
