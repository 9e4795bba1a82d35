// Command cobra-server serves the Cobra VDBMS over TCP: COQL queries,
// MIL statements and remote HMM evaluation (the paper's Fig. 3
// distributed-engine setup, collapsed into one process with an engine
// pool).
//
// Usage:
//
//	cobra-server -addr :4242 [-db ./f1db | -data-dir ./cobra-data]
//	             [-wal-sync always|interval|none] [-checkpoint-every 5m]
//	             [-metrics-addr :6060] [-slow-query-ms 250] [-threads 8]
//	             [-qcache-bytes 67108864] [-max-inflight 32 -max-queue 64]
//	             [-rate 100 -burst 20] [-auth-token secret]
//	             [-feed live-gp [-feed-interval 200ms] [-feed-step 2]
//	              [-feed-dur 120] [-feed-seed 42]]
//
// With -db, a plain snapshot directory is loaded read-only and the
// process is main-memory only, as in the paper. With -data-dir, the
// durability subsystem takes over: the directory is recovered on start
// (latest checkpoint snapshot plus write-ahead-log replay), every
// store mutation is WAL-logged under the -wal-sync policy, checkpoints
// run every -checkpoint-every (and on demand via the CHECKPOINT
// protocol command), and a final checkpoint runs on clean shutdown.
// Kill the process at any moment and restart it with the same
// -data-dir: it recovers every acknowledged write.
//
// With -metrics-addr set, the process additionally serves /metrics
// (Prometheus text exposition; telemetry JSON under
// Accept: application/json or at /debug/vars) and /debug/pprof over
// HTTP. -slow-query-ms enables the slow-query log, readable over the
// protocol via SLOWLOG; completed query traces are readable via
// TRACEDUMP.
//
// -threads sets the width of the shared kernel worker pool that
// morsel-parallel BAT operators, MIL PARALLEL blocks and the HMM/DBN
// engines schedule onto (0: GOMAXPROCS). The MIL threadcnt() setting
// adjusts the same pool at runtime.
//
// Serving hardening: -qcache-bytes sizes the semantic result cache
// (default 64 MiB; 0 disables it) that answers repeated COQL queries
// from memory until a dependency BAT mutates. -max-inflight bounds
// concurrently executing heavy requests; arrivals beyond
// -max-inflight + -max-queue are shed with a BUSY response. -rate and
// -burst add per-tenant token-bucket rate limits. -auth-token
// requires clients to AUTH before heavy verbs. All of these can be
// inspected and toggled live over the protocol: CACHESTATS, GATES,
// GATES SET <flag> <on|off|NN%>. See docs/SERVING.md.
//
// Streaming: SUBSCRIBE/UNSUBSCRIBE standing queries are always
// served. With -feed <video>, the process additionally runs a live
// ingest loop — a simulated race broadcast is appended into the named
// video clip by clip (-feed-step broadcast seconds every
// -feed-interval of wall clock), and every append advances the
// standing queries, pushing changed result sets to subscribers. See
// docs/STREAMING.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"runtime/debug"
	"time"

	"cobra/internal/admit"
	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/hmm"
	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/stream"
	"cobra/internal/synth"
	"cobra/internal/wal"
)

func main() {
	addr := flag.String("addr", ":4242", "listen address")
	db := flag.String("db", "", "snapshot directory to load (read-only, no durability)")
	dataDir := flag.String("data-dir", "", "durable data directory: recover on start, WAL every mutation")
	walSync := flag.String("wal-sync", "always", "WAL fsync policy: always, interval or none")
	checkpointEvery := flag.Duration("checkpoint-every", 5*time.Minute, "background checkpoint period with -data-dir (0: manual CHECKPOINT only)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address (empty: disabled)")
	slowMs := flag.Int("slow-query-ms", 0, "log queries slower than this many milliseconds (0: disabled)")
	threads := flag.Int("threads", 0, "kernel worker-pool width for parallel operators (0: GOMAXPROCS)")
	feed := flag.String("feed", "", "ingest a simulated live race into this video name (empty: no live feed)")
	feedInterval := flag.Duration("feed-interval", 200*time.Millisecond, "wall-clock pause between live ingest steps")
	feedStep := flag.Float64("feed-step", 2, "broadcast seconds aired per ingest step")
	feedDur := flag.Float64("feed-dur", 120, "simulated race duration in seconds for -feed")
	feedSeed := flag.Int64("feed-seed", 42, "simulation seed for -feed")
	qcacheBytes := flag.Int64("qcache-bytes", qcache.DefaultMaxBytes, "semantic result cache budget in bytes (0: cache disabled)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing heavy requests (0: unlimited)")
	maxQueue := flag.Int("max-queue", 0, "max heavy requests queued beyond -max-inflight before shedding BUSY")
	rate := flag.Float64("rate", 0, "per-tenant heavy requests per second (0: unlimited)")
	burst := flag.Int("burst", 0, "per-tenant token-bucket burst for -rate")
	authToken := flag.String("auth-token", "", "require AUTH <tenant> <token> before heavy verbs (empty: open)")
	flag.Parse()

	if *db != "" && *dataDir != "" {
		fatal(fmt.Errorf("-db and -data-dir are mutually exclusive"))
	}
	if *threads > 0 {
		monet.SetDefaultPoolWorkers(*threads)
	}
	if *slowMs > 0 {
		obs.DefaultSlowLog.SetThreshold(time.Duration(*slowMs) * time.Millisecond)
	}
	if *metricsAddr != "" {
		maddr, _, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics on http://%s/metrics (pprof under /debug/pprof)\n", maddr)
	}

	store := monet.NewStore()
	cat := cobra.NewCatalog(store)

	var mgr *wal.Manager
	if *dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			fatal(err)
		}
		mgr, err = wal.Open(*dataDir, store, wal.Options{
			Sync:            policy,
			CheckpointEvery: *checkpointEvery,
		})
		if err != nil {
			fatal(err)
		}
		r := mgr.Recovery
		fmt.Printf("recovered %s: %d BATs from snapshot, %d WAL records replayed in %v",
			*dataDir, r.SnapshotBATs, r.Replayed, r.Elapsed.Round(time.Millisecond))
		if r.Torn {
			fmt.Print(" (torn tail repaired)")
		}
		fmt.Println()
	}
	if *db != "" {
		if err := store.LoadSnapshot(*db); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d BATs from %s\n", store.Len(), *db)
	}

	pre := cobra.NewPreprocessor(cat)
	cfg := f1.DefaultExpConfig()
	cfg.RaceDur = 200
	cfg.TrainDur = 120
	cfg.EMIterations = 3
	corpus := f1.NewCorpus(cfg)
	if *db == "" && store.Len() == 0 {
		// Fresh start: simulate and ingest the broadcasts. With
		// -data-dir the ingest itself is WAL-logged, so a crash during
		// it recovers the finished prefix.
		if err := corpus.IngestVideos(cat); err != nil {
			fatal(err)
		}
	}
	corpus.RegisterExtractors(pre)

	// Six stroke models for the HMM endpoint, as in Fig. 4.
	pool := hmm.NewEnginePool(7)
	rng := rand.New(rand.NewSource(1))
	for _, name := range []string{"Service", "Forehand", "Smash", "Backhand", "VolleyBackhand", "VolleyForehand"} {
		m := hmm.NewModel(name, 8, 16)
		m.Randomize(rng)
		if err := pool.Register(m); err != nil {
			fatal(err)
		}
	}

	srv := server.New(pre, pool)
	if mgr != nil {
		srv.SetCheckpointer(mgr)
	}
	if *qcacheBytes > 0 {
		srv.SetCache(qcache.New(*qcacheBytes))
	}
	if *maxInflight > 0 || *rate > 0 {
		srv.SetAdmission(admit.New(admit.Config{
			MaxInFlight: *maxInflight,
			MaxQueue:    *maxQueue,
			Rate:        *rate,
			Burst:       *burst,
		}))
	}
	if *authToken != "" {
		srv.SetAuthToken(*authToken)
	}
	subs := stream.NewManager(query.NewEngine(pre))
	srv.SetStream(subs)

	// The live feed: air the simulated race into the catalog step by
	// step and advance the standing queries after every append.
	stopFeed := make(chan struct{})
	feedDone := make(chan struct{})
	if *feed != "" {
		race := synth.GenerateRace(synth.GermanGP, *feedDur, *feedSeed)
		ing, err := f1.NewLiveIngestor(cat, *feed, race, *feedSeed)
		if err != nil {
			fatal(err)
		}
		// Extraction leaves the boot's largest garbage behind: the race's
		// rendered audio alone is 8 bytes a sample. Collect it and return
		// its pages here, so that the cycle which would otherwise notice it,
		// and the scavenging after it, do not fall at some point of the
		// feed that depends on how extraction's chains finished.
		debug.FreeOSMemory()
		fmt.Printf("live feed: airing %.0fs of %s every %v in %g s steps\n",
			*feedDur, *feed, *feedInterval, *feedStep)
		go func() {
			defer close(feedDone)
			tick := time.NewTicker(*feedInterval)
			defer tick.Stop()
			for !ing.Done() {
				select {
				case <-stopFeed:
					return
				case <-tick.C:
				}
				w, err := ing.Step(*feedStep)
				if err != nil {
					// A chunk commits whole or not at all, so on error w is
					// still the watermark of the last committed one.
					fmt.Fprintf(os.Stderr, "cobra-server: live feed stopped: %v; %s is intact at its last committed watermark %.1fs\n", err, *feed, w)
					return
				}
				subs.Advance(context.Background())
				if ing.Done() {
					fmt.Printf("live feed: %s fully aired at %.1fs\n", *feed, w)
				}
			}
		}()
	} else {
		close(feedDone)
	}

	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cobra-server listening on %s\n", bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	close(stopFeed)
	<-feedDone
	srv.Close()
	if mgr != nil {
		// Final checkpoint: the next start recovers without replay.
		if err := mgr.Close(); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-server:", err)
	os.Exit(1)
}
