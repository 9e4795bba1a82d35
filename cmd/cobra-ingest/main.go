// Command cobra-ingest simulates the three Grand Prix broadcasts, runs
// the complete extraction pipeline (features, captions, excited
// speech, highlights, rule-derived events) and persists the resulting
// database for cobra-cli and cobra-server to load.
//
// Usage:
//
//	cobra-ingest -out ./f1db [-dur 300] [-train 150] [-seed 2001] [-em 5]
//	cobra-ingest -data-dir ./cobra-data [...]
//
// With -out, the store is dumped as a plain snapshot directory at the
// end of the run (for cobra-server -db). With -data-dir, the run is
// durable from the first BAT: every Put is write-ahead logged as
// extraction proceeds, so a crash mid-ingest loses nothing already
// extracted, and a final checkpoint leaves a replay-free directory for
// cobra-server -data-dir.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/monet"
	"cobra/internal/wal"
)

func main() {
	out := flag.String("out", "f1db", "snapshot output directory")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoint) instead of -out")
	dur := flag.Float64("dur", 300, "simulated race duration in seconds")
	train := flag.Float64("train", 150, "training prefix in seconds")
	seed := flag.Int64("seed", 2001, "simulation seed")
	em := flag.Int("em", 5, "EM iterations for the DBN engines")
	flag.Parse()

	cfg := f1.DefaultExpConfig()
	cfg.RaceDur = *dur
	cfg.TrainDur = *train
	cfg.Seed = *seed
	cfg.EMIterations = *em

	corpus := f1.NewCorpus(cfg)
	store := monet.NewStore()
	var mgr *wal.Manager
	if *dataDir != "" {
		var err error
		// Interval sync: ingest is a bulk load, the final checkpoint
		// makes it durable; per-Put fsync would only slow it down.
		mgr, err = wal.Open(*dataDir, store, wal.Options{Sync: wal.SyncInterval})
		if err != nil {
			fatal(err)
		}
	}
	cat := cobra.NewCatalog(store)
	if err := corpus.IngestVideos(cat); err != nil {
		fatal(err)
	}
	pre := cobra.NewPreprocessor(cat)
	corpus.RegisterExtractors(pre)

	// Materialize everything for every video.
	var reqs []cobra.Requirement
	for _, name := range f1.FeatureNames {
		reqs = append(reqs, cobra.Requirement{Kind: cobra.NeedFeature, Name: name})
	}
	for _, typ := range []string{
		f1.EventCaption, f1.EventExcited, f1.EventHighlight,
		f1.EventStart, f1.EventFlyOut, f1.EventPassing,
		f1.EventPitStop, f1.EventWinner,
	} {
		reqs = append(reqs, cobra.Requirement{Kind: cobra.NeedEvents, Name: typ})
	}
	reqs = append(reqs, cobra.Requirement{Kind: cobra.NeedObjects, Name: ""})
	// The races are independent: extract their features side by side,
	// then run the engines (network training, filtering, rules) per
	// video on the cached features. A video's time is its own
	// extraction plus its engines.
	videos := cat.Videos()
	took, err := corpus.Prefetch(videos)
	if err != nil {
		fatal(err)
	}
	for _, video := range videos {
		start := time.Now()
		plan, err := pre.Ensure(video, reqs, 0.5)
		if err != nil {
			fatal(fmt.Errorf("extracting %s: %w", video, err))
		}
		fmt.Printf("%-12s extracted via %v in %.1fs\n", video, plan.Ran, (took[video] + time.Since(start)).Seconds())
	}
	if mgr != nil {
		// Final checkpoint + clean close: cobra-server -data-dir picks
		// this up with zero replay.
		if err := mgr.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("durable database with %d BATs checkpointed to %s\n", store.Len(), *dataDir)
		return
	}
	if err := store.Snapshot(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("snapshot with %d BATs written to %s\n", store.Len(), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cobra-ingest:", err)
	os.Exit(1)
}
