// Package bench is the benchmark harness: one benchmark per table and
// figure of the paper's evaluation (run them with
// `go test -bench=. -benchmem .`), plus kernel and engine
// micro-benchmarks. The experiment benchmarks run at a reduced race
// scale so the full suite stays in the minutes range; cmd/cobra-bench
// runs the same experiments at the default scale and prints the
// paper-vs-measured tables.
package bench

import (
	"math/rand"
	"sync"
	"testing"

	"cobra/internal/dbn"
	"cobra/internal/dsp"
	"cobra/internal/f1"
	"cobra/internal/hmm"
	"cobra/internal/monet"
	"cobra/internal/synth"
)

// lab is shared across experiment benchmarks: extraction and training
// caches make successive benchmarks cheap.
var (
	labOnce sync.Once
	lab     *f1.Lab
)

func sharedLab() *f1.Lab {
	labOnce.Do(func() {
		cfg := f1.DefaultExpConfig()
		cfg.RaceDur = 200
		cfg.TrainDur = 120
		cfg.EMIterations = 4
		lab = f1.NewLab(cfg)
	})
	return lab
}

// BenchmarkTable1 regenerates Table 1: three static BN structures vs
// the fully parameterized DBN on emphasized-speech detection.
func BenchmarkTable1(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2: audio DBN generalization to the
// Belgian and USA GP.
func BenchmarkTable2(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 regenerates Table 3: the audio-visual DBN on the
// German GP with sub-event attribution.
func BenchmarkTable3(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4 regenerates Table 4: the passing sub-network
// ablation on the Belgian and USA GP.
func BenchmarkTable4(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates Fig. 9: BN vs DBN output smoothness.
func BenchmarkFig9(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		r, err := l.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		if r.DBNRough >= r.BNRough {
			b.Fatalf("DBN roughness %v not below BN %v", r.DBNRough, r.BNRough)
		}
	}
}

// BenchmarkTemporalDeps regenerates the temporal-dependency study.
func BenchmarkTemporalDeps(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.TemporalDeps(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClustering regenerates the Boyen-Koller clustering
// experiment.
func BenchmarkClustering(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.Clustering(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShotDetection regenerates the §5.3 shot-detection accuracy
// check.
func BenchmarkShotDetection(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.ShotAccuracy(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeywordModels regenerates the acoustic-model comparison of
// §5.2.
func BenchmarkKeywordModels(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		r, err := l.KeywordModels()
		if err != nil {
			b.Fatal(err)
		}
		if r.TVNewsRecall <= r.CleanRecall {
			b.Fatalf("tvnews recall %v not above clean %v", r.TVNewsRecall, r.CleanRecall)
		}
	}
}

// BenchmarkAudioVsAV regenerates the §6 coverage comparison.
func BenchmarkAudioVsAV(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.AudioVsAV(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelHMM measures Fig. 3/4: serial vs parallel
// evaluation of six HMMs.
func BenchmarkParallelHMM(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	mkPool := func(threads int) *hmm.EnginePool {
		pool := hmm.NewEnginePool(threads)
		for _, name := range []string{"Service", "Forehand", "Smash", "Backhand", "VolleyBackhand", "VolleyForehand"} {
			m := hmm.NewModel(name, 12, 32)
			m.Randomize(rng)
			if err := pool.Register(m); err != nil {
				b.Fatal(err)
			}
		}
		return pool
	}
	obs := make([]int, 5000)
	for i := range obs {
		obs[i] = rng.Intn(32)
	}
	b.Run("serial", func(b *testing.B) {
		pool := mkPool(1)
		for i := 0; i < b.N; i++ {
			if _, err := pool.EvaluateAll(obs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("threadcnt7", func(b *testing.B) {
		pool := mkPool(7)
		for i := 0; i < b.N; i++ {
			if _, err := pool.EvaluateAll(obs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFeatureExtraction measures the full §5.2-5.4 pipeline over
// one minute of simulated broadcast.
func BenchmarkFeatureExtraction(b *testing.B) {
	race := synth.GenerateRace(synth.GermanGP, 60, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f1.Extract(race, f1.Options{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBNFilter measures Boyen-Koller filtering throughput on the
// audio-visual network (S = 32).
func BenchmarkDBNFilter(b *testing.B) {
	d, err := f1.NewAVDBN(true)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	obs := make([][]int, 3000)
	for i := range obs {
		row := make([]int, 9)
		for k := range row {
			row[k] = rng.Intn(3)
		}
		obs[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Filter(obs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDBNLearnEM measures one EM iteration over a training
// segment set.
func BenchmarkDBNLearnEM(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	obs := make([][]int, 500)
	for i := range obs {
		row := make([]int, 10)
		for k := range row {
			row[k] = rng.Intn(3)
		}
		obs[i] = row
	}
	seqs := [][][]int{obs[:250], obs[250:]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := f1.NewAudioDBN(f1.FullyParameterized, f1.TemporalFig8)
		if err != nil {
			b.Fatal(err)
		}
		cfg := dbn.DefaultEMConfig()
		cfg.MaxIterations = 1
		if _, err := d.LearnEM(seqs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Kernel micro-benchmarks.

func benchBAT(n int) *monet.BAT {
	b := monet.NewBATCap(monet.OIDT, monet.IntT, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		b.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(rng.Int63n(1000)))
	}
	return b
}

// BenchmarkBATSelect measures range selection over 100k BUNs.
func BenchmarkBATSelect(b *testing.B) {
	bat := benchBAT(100_000)
	lo, hi := monet.NewInt(100), monet.NewInt(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Select(lo, hi)
	}
}

// BenchmarkBATJoin measures a hash equi-join of 10k x 10k BATs.
func BenchmarkBATJoin(b *testing.B) {
	left := monet.NewBATCap(monet.OIDT, monet.OIDT, 10_000)
	for i := 0; i < 10_000; i++ {
		left.MustInsert(monet.NewOID(monet.OID(i)), monet.NewOID(monet.OID(i%1000)))
	}
	right := benchBAT(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT measures the 512-point FFT used by the audio frontend.
func BenchmarkFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	re := make([]float64, 512)
	im := make([]float64, 512)
	for i := range re {
		re[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copyRe := append([]float64(nil), re...)
		copyIm := append([]float64(nil), im...)
		dsp.FFT(copyRe, copyIm)
	}
}

// BenchmarkHMMLogLikelihood measures forward-algorithm throughput.
func BenchmarkHMMLogLikelihood(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m := hmm.NewModel("bench", 12, 32)
	m.Randomize(rng)
	obs := make([]int, 2000)
	for i := range obs {
		obs[i] = rng.Intn(32)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.LogLikelihood(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuantizationAblation regenerates the evidence-granularity
// ablation (DESIGN.md §5.2).
func BenchmarkQuantizationAblation(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		if _, err := l.QuantizationAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnchorAblation regenerates the anchored-EM ablation
// (DESIGN.md §5: domain-knowledge anchoring).
func BenchmarkAnchorAblation(b *testing.B) {
	l := sharedLab()
	for i := 0; i < b.N; i++ {
		rows, err := l.AnchorAblation()
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Recall < rows[1].Recall-0.05 {
			b.Fatalf("anchored recall %v below plain %v", rows[0].Recall, rows[1].Recall)
		}
	}
}
