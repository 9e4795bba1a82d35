// Command cobra-bench regenerates every table and figure of the
// paper's evaluation (§5.5) on simulated Formula 1 broadcasts and
// prints measured precision/recall next to the paper's numbers.
//
// Usage:
//
//	cobra-bench [-dur 600] [-train 300] [-seed 2001] [-em 10] [-run all]
//	cobra-bench -run micro [-benchout DIR | -benchout FILE.json]
//
// -run selects one experiment: table1, table2, table3, table4, fig9,
// temporal, clustering, shots, audiovsav, keywords, parallelhmm, all.
// "micro" (not part of "all") runs kernel/engine microbenchmarks —
// including a pool-width sweep of the kernel's morsel-parallel select
// and fused select→sum over 1M-row BATs — and prints the parallel
// speedup per operator. With -benchout ending in .json, all results
// are written as one combined machine-readable file (the format
// cmd/benchdiff and the CI bench-gate consume; the committed
// BENCH_baseline.json is produced this way); otherwise -benchout names
// a directory receiving one BENCH_<op>.json per benchmark.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"cobra/internal/f1"
	"cobra/internal/hmm"
)

// benchOut is the -benchout directory ("" disables BENCH_*.json files).
var benchOut string

func main() {
	dur := flag.Float64("dur", 600, "simulated race duration in seconds")
	train := flag.Float64("train", 300, "training prefix in seconds")
	seed := flag.Int64("seed", 2001, "simulation seed")
	em := flag.Int("em", 10, "EM iterations")
	run := flag.String("run", "all", "experiment to run")
	flag.StringVar(&benchOut, "benchout", "", "microbenchmark result output: a .json path for one combined file, else a directory for BENCH_*.json (empty: print only)")
	flag.Parse()

	cfg := f1.DefaultExpConfig()
	cfg.RaceDur = *dur
	cfg.TrainDur = *train
	cfg.Seed = *seed
	cfg.EMIterations = *em
	lab := f1.NewLab(cfg)

	want := strings.ToLower(*run)
	ok := true
	for _, exp := range experiments {
		if want != "all" && want != exp.name {
			continue
		}
		if exp.name == "micro" && want != "micro" {
			continue // microbenchmarks only run when requested explicitly
		}
		fmt.Printf("=== %s: %s ===\n", exp.name, exp.title)
		start := time.Now()
		if err := exp.fn(lab); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", exp.name, err)
			ok = false
		}
		fmt.Printf("    (%.1fs)\n\n", time.Since(start).Seconds())
	}
	if !ok {
		os.Exit(1)
	}
}

type experiment struct {
	name  string
	title string
	fn    func(*f1.Lab) error
}

var experiments = []experiment{
	{"table1", "BN structures vs fully parameterized DBN (excited speech, German GP)", runTable1},
	{"table2", "audio DBN generalization (Belgian and USA GP)", runTable2},
	{"table3", "audio-visual DBN on the German GP", runTable3},
	{"table4", "audio-visual DBN with/without the passing sub-network", runTable4},
	{"fig9", "BN vs DBN inference smoothness over a 300 s clip", runFig9},
	{"temporal", "temporal-dependency variants (Fig. 8 et al.)", runTemporal},
	{"clustering", "Boyen-Koller clustering experiment", runClustering},
	{"shots", "histogram shot-detection accuracy", runShots},
	{"audiovsav", "audio-only vs audio-visual highlight coverage", runAudioVsAV},
	{"keywords", "keyword-spotting acoustic models (clean vs TV news)", runKeywords},
	{"parallelhmm", "parallel evaluation of 6 HMMs (Figs. 3-4)", runParallelHMM},
	{"ablation-quant", "ablation: evidence quantization levels", runQuantAblation},
	{"ablation-anchor", "ablation: anchored vs plain EM for the AV network", runAnchorAblation},
	{"micro", "kernel/engine microbenchmarks (BENCH_*.json)", runMicro},
}

func runQuantAblation(lab *f1.Lab) error {
	rows, err := lab.QuantizationAblation()
	if err != nil {
		return err
	}
	printRows(rows)
	return nil
}

func runAnchorAblation(lab *f1.Lab) error {
	rows, err := lab.AnchorAblation()
	if err != nil {
		return err
	}
	printRows(rows)
	fmt.Println("  (without anchoring, EM decouples sub-event nodes from the query node)")
	return nil
}

func printRows(rows []f1.Row) {
	for _, r := range rows {
		fmt.Println("  " + r.String())
	}
}

func runTable1(lab *f1.Lab) error {
	rows, err := lab.Table1()
	if err != nil {
		return err
	}
	printRows(rows)
	return nil
}

func runTable2(lab *f1.Lab) error {
	rows, err := lab.Table2()
	if err != nil {
		return err
	}
	printRows(rows)
	return nil
}

func runTable3(lab *f1.Lab) error {
	rows, err := lab.Table3()
	if err != nil {
		return err
	}
	printRows(rows)
	return nil
}

func runTable4(lab *f1.Lab) error {
	rows, err := lab.Table4()
	if err != nil {
		return err
	}
	printRows(rows)
	return nil
}

func runFig9(lab *f1.Lab) error {
	r, err := lab.Fig9()
	if err != nil {
		return err
	}
	fmt.Printf("  BN  roughness %.4f (jagged, needs accumulation)\n", r.BNRough)
	fmt.Printf("  DBN roughness %.4f (smooth, direct threshold)\n", r.DBNRough)
	fmt.Println("  series (downsampled to 60 columns, '#' = BN, 'o' = DBN):")
	fmt.Println("  BN  " + sparkline(r.BN))
	fmt.Println("  DBN " + sparkline(r.DBN))
	return nil
}

// sparkline renders a probability series as a coarse text plot.
func sparkline(series []float64) string {
	const cols = 60
	glyphs := []rune(" .:-=+*#%@")
	if len(series) == 0 {
		return ""
	}
	out := make([]rune, cols)
	for c := 0; c < cols; c++ {
		lo := c * len(series) / cols
		hi := (c + 1) * len(series) / cols
		if hi <= lo {
			hi = lo + 1
		}
		m := 0.0
		for i := lo; i < hi && i < len(series); i++ {
			if series[i] > m {
				m = series[i]
			}
		}
		g := int(m * float64(len(glyphs)-1))
		out[c] = glyphs[g]
	}
	return string(out)
}

func runTemporal(lab *f1.Lab) error {
	rows, err := lab.TemporalDeps()
	if err != nil {
		return err
	}
	printRows(rows)
	fmt.Println("  (paper: Fig. 8 wiring significantly beats to-query, slightly beats corresponding)")
	return nil
}

func runClustering(lab *f1.Lab) error {
	r, err := lab.Clustering()
	if err != nil {
		return err
	}
	fmt.Printf("  exact (1 cluster):   P=%5.1f%% R=%5.1f%%  misclassified=%d\n",
		100*r.Exact.Precision, 100*r.Exact.Recall, r.ExactMisclassified)
	fmt.Printf("  clustered (BK):      P=%5.1f%% R=%5.1f%%  misclassified=%d\n",
		100*r.Clustered.Precision, 100*r.Clustered.Recall, r.ClusteredMisclassified)
	fmt.Printf("  mean |Δmarginal| = %.5f (projection error)\n", r.MeanAbsDiff)
	return nil
}

func runShots(lab *f1.Lab) error {
	acc, err := lab.ShotAccuracy()
	if err != nil {
		return err
	}
	fmt.Printf("  boundary recall %.1f%% (paper: accuracy over 90%%)\n", 100*acc)
	return nil
}

func runAudioVsAV(lab *f1.Lab) error {
	r, err := lab.AudioVsAV()
	if err != nil {
		return err
	}
	fmt.Printf("  audio-only coverage of interesting segments: %5.1f%% (paper ~50%%)\n", 100*r.AudioCoverage)
	fmt.Printf("  audio-visual coverage:                       %5.1f%% (paper ~80%%)\n", 100*r.AVCoverage)
	return nil
}

func runKeywords(lab *f1.Lab) error {
	r, err := lab.KeywordModels()
	if err != nil {
		return err
	}
	fmt.Printf("  clean-speech model: recall %5.1f%% precision %5.1f%%\n", 100*r.CleanRecall, 100*r.CleanPrecision)
	fmt.Printf("  TV-news model:      recall %5.1f%% precision %5.1f%% (paper: clearly better)\n",
		100*r.TVNewsRecall, 100*r.TVNewsPrecision)
	return nil
}

// runParallelHMM measures serial vs parallel evaluation of six stroke
// models, the paper's Fig. 3/4 speedup.
func runParallelHMM(*f1.Lab) error {
	rng := rand.New(rand.NewSource(7))
	names := []string{"Service", "Forehand", "Smash", "Backhand", "VolleyBackhand", "VolleyForehand"}
	serial := hmm.NewEnginePool(1)
	parallel := hmm.NewEnginePool(7) // threadcnt(7): coordinator + 6 engines
	for _, name := range names {
		m := hmm.NewModel(name, 12, 32)
		m.Randomize(rng)
		if err := serial.Register(m); err != nil {
			return err
		}
		if err := parallel.Register(m); err != nil {
			return err
		}
	}
	obs := make([]int, 20000)
	for i := range obs {
		obs[i] = rng.Intn(32)
	}
	timeIt := func(p *hmm.EnginePool) (time.Duration, error) {
		start := time.Now()
		const reps = 5
		for r := 0; r < reps; r++ {
			if _, err := p.EvaluateAll(obs); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / reps, nil
	}
	ts, err := timeIt(serial)
	if err != nil {
		return err
	}
	tp, err := timeIt(parallel)
	if err != nil {
		return err
	}
	fmt.Printf("  serial evaluation of 6 HMMs:   %v\n", ts)
	fmt.Printf("  parallel evaluation (6 engines): %v  (speedup %.2fx on %d cores)\n",
		tp, float64(ts)/float64(tp), runtime.NumCPU())
	return nil
}
