package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cobra/internal/benchfmt"
	"cobra/internal/cobra"
	"cobra/internal/f1"
	"cobra/internal/hmm"
	"cobra/internal/mil"
	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/qcache"
	"cobra/internal/query"
	"cobra/internal/server"
	"cobra/internal/stream"
	"cobra/internal/synth"
	"cobra/internal/wal"
)

// microBench is one harness entry: the operation plus the kernel pool
// width it is pinned to (0 = leave the default).
type microBench struct {
	name  string
	width int
	fn    func(b *testing.B)
}

// runMicro benchmarks one representative hot operation per level of
// the stack, the serial hash join over a 1M-row BAT, a width sweep of
// the kernel's morsel-parallel operators over 1M-row BATs at pool
// widths 1, 2, 4 and 8, and the paired
// access-path ablation (ablationBenches). Every result carries the pool
// width it was pinned to, and an op whose width exceeds GOMAXPROCS is
// refused: more workers than processors measures the scheduler, not the
// operator, so such a number is neither printed nor recorded. With
// -benchout set the results are written as machine-readable JSON: one
// combined benchfmt.File when the path ends in .json (the format
// benchdiff and the CI bench-gate consume), else one legacy
// BENCH_<name>.json per op in the given directory.
func runMicro(*f1.Lab) error {
	benches := []microBench{
		{"BATJoin", 0, benchBATJoin},
		{"BATUselect", 0, benchBATUselect},
		{"MILExec", 0, benchMILExec},
		{"MILSelectCount1M", 1, benchMILSelectCount1M},
		{"HMMEvalParallel", 0, benchHMMEvalParallel},
		{"COQLQuery", 0, benchCOQLQuery},
		{"SelectAgg1M", 1, benchUnfusedSelectAgg1M},
		{"DictEq1M", 1, benchDictEq1M},
		{"Join1M/w1", 1, benchJoin1M},
		{"StreamFanout/s1", 0, benchStreamFanout(1, 1)},
		{"StreamFanout/s100", 0, benchStreamFanout(1, 100)},
		{"StreamFanout/s1000", 0, benchStreamFanout(1, 1000)},
		{"StreamFanout/c100x10", 0, benchStreamFanout(100, 10)},
		{"StreamFanout/c1000x1", 0, benchStreamFanout(1000, 1)},
		{"LiveStep/nojournal", 0, benchLiveStep("")},
		{"LiveStep/interval", 0, benchLiveStep("interval")},
		{"LiveStep/always", 0, benchLiveStep("always")},
		{"Extract30s/w1", 1, benchExtract30s},
		{"Extract30s/w2", 2, benchExtract30s},
		{"UncachedQuery1M", 0, benchUncachedQuery1M},
		{"CachedQuery1M", 0, benchCachedQuery1M},
		{"CacheMissEvict", 0, benchCacheMissEvict},
	}
	// The width sweep: the same operator bodies pinned to 1, 2, 4 and 8
	// workers (width 1 takes every operator's serial path).
	sweep := []microBench{
		{"Select1M", 0, benchSelect1M},
		{"FusedSelectAgg1M", 0, benchFusedSelectAgg1M},
	}
	for _, w := range []int{1, 2, 4, 8} {
		for _, op := range sweep {
			benches = append(benches, microBench{
				name:  fmt.Sprintf("%s/w%d", op.name, w),
				width: w,
				fn:    op.fn,
			})
		}
	}
	// The ablation compares neighbouring entries, so each is measured
	// three times and the fastest kept: on a shared box a slow minute
	// would otherwise decide the comparison.
	best := map[string]int{}
	for _, bench := range ablationBenches() {
		best[bench.name] = 3
		benches = append(benches, bench)
	}
	results := make([]benchfmt.Result, 0, len(benches))
	for _, bench := range benches {
		fn := bench.fn
		if bench.width > runtime.GOMAXPROCS(0) {
			fmt.Printf("  %-28s refused: pool width %d > GOMAXPROCS %d\n", bench.name, bench.width, runtime.GOMAXPROCS(0))
			continue
		}
		if bench.width > 0 {
			fn = widthBench(bench.width, fn)
		}
		measure := func() testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				fn(b)
			})
		}
		r := measure()
		for i := 1; i < best[bench.name]; i++ {
			if again := measure(); again.NsPerOp() < r.NsPerOp() {
				r = again
			}
		}
		res := benchfmt.Result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Width:       bench.width,
		}
		fmt.Printf("  %-28s %12.0f ns/op %8d allocs/op %10d B/op (%d iterations, width %d)\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.Iterations, res.Width)
		if rate, ok := r.Extra["rows/s"]; ok {
			fmt.Printf("  %-28s %12.0f rows/s appended\n", res.Name, rate)
		}
		results = append(results, res)
	}
	printSpeedups(results)
	printAblation(results)
	printCacheSpeedup(results)
	printStreamRates(results)
	if benchOut == "" {
		return nil
	}
	if strings.HasSuffix(benchOut, ".json") {
		f := &benchfmt.File{
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Results:    results,
		}
		if err := benchfmt.Write(benchOut, f); err != nil {
			return err
		}
		fmt.Printf("  combined results written to %s\n", benchOut)
		return nil
	}
	for _, res := range results {
		if err := writeBenchJSON(res); err != nil {
			return err
		}
	}
	fmt.Printf("  BENCH_*.json written to %s\n", benchOut)
	return nil
}

// printSpeedups summarizes the width sweep: each operator's widest
// recorded run against its width-1 (serial-path) run.
func printSpeedups(results []benchfmt.Result) {
	for _, r := range results {
		op, ok := strings.CutSuffix(r.Name, "/w1")
		if !ok {
			continue
		}
		widest := r
		for _, o := range results {
			if strings.HasPrefix(o.Name, op+"/w") && o.Width > widest.Width {
				widest = o
			}
		}
		if widest.Width > 1 && widest.NsPerOp > 0 {
			fmt.Printf("  %-28s %.2fx speedup at pool width %d over width 1 (GOMAXPROCS %d)\n",
				op, r.NsPerOp/widest.NsPerOp, widest.Width, runtime.GOMAXPROCS(0))
		}
	}
}

// printCacheSpeedup summarizes the serving headline number: how much
// faster a semantic-cache hit answers the 1M-row feature query than a
// fresh execution of the same statement.
func printCacheSpeedup(results []benchfmt.Result) {
	var uncached, cached float64
	for _, r := range results {
		switch r.Name {
		case "UncachedQuery1M":
			uncached = r.NsPerOp
		case "CachedQuery1M":
			cached = r.NsPerOp
		}
	}
	if uncached > 0 && cached > 0 {
		fmt.Printf("  %-20s %.0fx cache-hit speedup over fresh execution\n",
			"Query1M", uncached/cached)
	}
}

// printStreamRates turns each StreamFanout result into the streaming
// headline number: notifications delivered per second at that
// subscriber fan-out (one live append pushes one notification to every
// subscriber). sN is N subscribers to one query, cAxB is A distinct
// queries with B subscribers each.
func printStreamRates(results []benchfmt.Result) {
	for _, r := range results {
		shape, ok := strings.CutPrefix(r.Name, "StreamFanout/")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		classes, copies := 1, 0
		if _, err := fmt.Sscanf(shape, "s%d", &copies); err != nil {
			if _, err := fmt.Sscanf(shape, "c%dx%d", &classes, &copies); err != nil {
				continue
			}
		}
		n := classes * copies
		fmt.Printf("  %-20s %10.0f notifications/sec (%d subscribers, %d evaluated per append)\n",
			r.Name, float64(n)/(r.NsPerOp/1e9), n, classes)
	}
}

// benchStreamFanout times one live append propagated through standing
// subscriptions — classes distinct queries, copies subscribers each:
// the event append, the watermark move, the epoch-gated re-evaluation
// of every class, the push to every member, and draining every
// subscriber queue. The LAST windows (5 to 6 s, one per class) keep
// each pushed result set small and distinct between steps so no push
// is suppressed.
func benchStreamFanout(classes, copies int) func(b *testing.B) {
	return func(b *testing.B) {
		cat := cobra.NewCatalog(monet.NewStore())
		if err := cat.PutVideo(cobra.Video{Name: "live", Duration: 0.1, FPS: 10}); err != nil {
			b.Fatal(err)
		}
		if err := cat.SetLive("live", true); err != nil {
			b.Fatal(err)
		}
		m := stream.NewManager(query.NewEngine(cobra.NewPreprocessor(cat)))
		n := classes * copies
		subs := make([]*stream.Subscription, n)
		for i := range subs {
			q := fmt.Sprintf("SELECT SEGMENTS FROM live WHERE EVENT('passing') LAST %g S", 5+float64(i/copies)/float64(classes))
			s, err := m.Subscribe(q, nil)
			if err != nil {
				b.Fatal(err)
			}
			subs[i] = s
		}
		ctx := context.Background()
		w := 0.0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			from := w
			w++
			_, err := cat.AppendEvents("live", []cobra.Event{{
				Video: "live", Type: "passing", Confidence: 1,
				Interval: cobra.Interval{Start: from, End: w},
			}})
			if err != nil {
				b.Fatal(err)
			}
			if err := cat.SetDuration("live", w); err != nil {
				b.Fatal(err)
			}
			if got := m.Advance(ctx); got != n {
				b.Fatalf("Advance pushed %d notifications, want %d", got, n)
			}
			for _, s := range subs {
				for {
					if _, ok := s.TryNext(); !ok {
						break
					}
				}
			}
		}
	}
}

// benchExtract30s times f1.Extract over a 30 s race: every §5.2-5.4
// feature, caption recognition included. At width 1 the audio and video
// chains run one after the other, wider they run side by side.
func benchExtract30s(b *testing.B) {
	race := synth.GenerateRace(synth.GermanGP, 30, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f1.Extract(race, f1.Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// liveStepFeatures extracts the race the LiveStep benchmarks air, once
// for all three: extraction costs seconds, a tick microseconds.
var liveStepFeatures = sync.OnceValues(func() (*f1.Features, error) {
	return f1.Extract(synth.GenerateRace(synth.GermanGP, 120, 42), f1.Options{Seed: 42})
})

// benchLiveStep times one f1.LiveIngestor.Step of 0.2 broadcast
// seconds — the tick of the end-to-end live_durable workload: two rows
// into each of 19 feature series, the events that completed and the
// duration watermark, as one kernel commit — with no journal or with a
// write-ahead log under the given sync policy. When the race has fully
// aired the store, the log and the ingestor are replaced off the clock.
func benchLiveStep(walSync string) func(b *testing.B) {
	return func(b *testing.B) {
		f, err := liveStepFeatures()
		if err != nil {
			b.Fatal(err)
		}
		var (
			ing *f1.LiveIngestor
			mgr *wal.Manager
			dir string
		)
		closeLog := func() {
			if mgr != nil {
				if err := mgr.Close(); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
			}
		}
		fresh := func() {
			closeLog()
			store := monet.NewStore()
			if walSync != "" {
				policy, err := wal.ParseSyncPolicy(walSync)
				if err != nil {
					b.Fatal(err)
				}
				if dir, err = os.MkdirTemp("", "cobra-bench-livestep-"); err != nil {
					b.Fatal(err)
				}
				if mgr, err = wal.Open(dir, store, wal.Options{Sync: policy}); err != nil {
					b.Fatal(err)
				}
			}
			if ing, err = f1.NewLiveIngestorFrom(cobra.NewCatalog(store), "live", f); err != nil {
				b.Fatal(err)
			}
		}
		fresh()
		defer closeLog()
		rows := obs.C("monet.store.append_rows")
		rows0 := rows.Value()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ing.Done() {
				b.StopTimer()
				fresh()
				b.StartTimer()
			}
			if _, err := ing.Step(0.2); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(rows.Value()-rows0)/b.Elapsed().Seconds(), "rows/s")
	}
}

// widthBench pins the kernel pool to w workers for the run: width 1
// takes every operator's serial path, wider pools go morsel-parallel.
func widthBench(w int, fn func(b *testing.B)) func(b *testing.B) {
	return func(b *testing.B) {
		prev := monet.SetDefaultPoolWorkers(w)
		defer monet.SetDefaultPoolWorkers(prev)
		fn(b)
	}
}

func writeBenchJSON(res benchfmt.Result) error {
	if err := os.MkdirAll(benchOut, 0o755); err != nil {
		return err
	}
	path := filepath.Join(benchOut, "BENCH_"+res.Name+".json")
	return benchfmt.Write(path, &benchfmt.File{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    []benchfmt.Result{res},
	})
}

// bigBAT builds a [void, int] BAT of n rows with tails cycling over
// [0, mod).
func bigBAT(n, mod int) *monet.BAT {
	bat := monet.NewBATCap(monet.Void, monet.IntT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%mod)))
	}
	return bat
}

// benchSelect1M range-selects ~10% of a 1M-row BAT; the pool width set
// by the Serial/Parallel wrapper decides the execution path.
func benchSelect1M(b *testing.B) {
	bat := bigBAT(1<<20, 1000)
	lo, hi := monet.NewInt(100), monet.NewInt(199)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Select(lo, hi)
	}
}

// benchJoin1M probes 1M rows against a 100k-key build side. The join
// is serial, so the pool width does not change its path.
func benchJoin1M(b *testing.B) {
	const keys = 100_000
	left := bigBAT(1<<20, keys)
	right := monet.NewBATCap(monet.IntT, monet.IntT, keys)
	for i := 0; i < keys; i++ {
		right.MustInsert(monet.NewInt(int64(i)), monet.NewInt(int64(i)*2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right); err != nil {
			b.Fatal(err)
		}
	}
}

// benchUnfusedSelectAgg1M is the operator-at-a-time select→aggregate
// the fused pipeline is judged against, like for like: the same stored
// column, the same access-path gate and the same warmed index state as
// FusedSelectAgg1M, but materializing the filtered BAT (the gathered
// intermediate the paper's MIL chains produce) and then summing it.
// ~10% selectivity over 1M int rows.
func benchUnfusedSelectAgg1M(b *testing.B) {
	store := fusedAggStore(b)
	val, err := store.Get("bench/val")
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := monet.NewInt(100), monet.NewInt(199)
	ctx := context.Background()
	sum := func() {
		sel, _, ok := store.SelectRange(ctx, "bench/val", val, lo, hi, false)
		if !ok {
			b.Fatal("bench/val replaced mid-benchmark")
		}
		if _, err := sel.Sum(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < fusedWarmup; i++ {
		sum()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum()
	}
}

// fusedWarmup is how many untimed calls the paired fused/unfused
// benchmarks make first: enough for the gate to settle on the road it
// keeps for this range.
const fusedWarmup = 4

// fusedAggStore builds the fused-pipeline fixture: "bench/val", a
// 1M-row int column cycling [0, 1000).
func fusedAggStore(b *testing.B) *monet.Store {
	store := monet.NewStore()
	n := 1 << 20
	val := monet.NewBATCap(monet.Void, monet.IntT, n)
	for i := 0; i < n; i++ {
		val.MustInsert(monet.VoidValue(), monet.NewInt(int64(i%1000)))
	}
	if err := store.Put("bench/val", val); err != nil {
		b.Fatal(err)
	}
	return store
}

// benchFusedSelectAgg1M times the fused select→sum pipeline over the
// same workload as SelectAgg1M: no position slice, no gathered
// intermediate — each morsel feeds its qualifying runs straight into
// the sum, and the store's access-path gate (the same one, warmed the same
// way) answers the predicate.
func benchFusedSelectAgg1M(b *testing.B) {
	store := fusedAggStore(b)
	p := store.Pipeline("bench/val", monet.NewInt(100), monet.NewInt(199))
	ctx := context.Background()
	for i := 0; i < fusedWarmup; i++ {
		if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Aggregate(ctx, "bench/val", "sum"); err != nil {
			b.Fatal(err)
		}
	}
}

// The access-path ablation: the same 1M-row float column and the same
// eight ranges per selectivity, answered with the gate held on the
// scan and on the zone map, and then left alone —
//
//	TypedScan1M      the full typed scan (a NaN and a +Inf at the
//	                 start of every zone leave no zone a summary can
//	                 settle, so every zone runs the kernel)
//	ZoneMapSelect1M  zone-map pruning, the gate's one numeric road
//	GateSelect1M     the gate's own choice on a warmed column
//
// over two layouts: "shuffled" (uniform values in row order, where a
// zone map cannot prune) and "clustered" (ascending values, the
// time-ordered telemetry layout zone maps reward), at 0.1 %, 1 %, 10 %
// and 50 % selectivity, all at pool width 1. At each selectivity and
// layout GateSelect1M should sit within 1.25x of the best of the other
// two.
var (
	ablationLayouts = []string{"shuffled", "clustered"}
	ablationSels    = []struct {
		tag   string
		share float64
	}{{"s0.1", 0.001}, {"s1", 0.01}, {"s10", 0.10}, {"s50", 0.50}}
	ablationPaths = []string{"TypedScan1M", "ZoneMapSelect1M", "GateSelect1M"}
)

const ablationRanges = 8

// ablationValues returns the 1M values of a layout, over [0, 1000).
func ablationValues(layout string) []float64 {
	vals := make([]float64, 1<<20)
	for i := range vals {
		vals[i] = float64(i) * 1000 / float64(len(vals))
	}
	if layout == "shuffled" {
		rand.New(rand.NewSource(20020325)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	}
	return vals
}

// ablationStore stores vals as "bench/val", pinned to the scan for
// TypedScan1M: a zone holding NaN (the least float) and +Inf is
// neither covered by nor disjoint from any range with numeric bounds.
func ablationStore(b *testing.B, path string, vals []float64) *monet.Store {
	store := monet.NewStore()
	bat := monet.NewBATCap(monet.Void, monet.FloatT, len(vals)+len(vals)/(monet.ZoneSize-2)*2+2)
	for i, v := range vals {
		if path == "TypedScan1M" && i%(monet.ZoneSize-2) == 0 {
			bat.MustInsert(monet.VoidValue(), monet.NewFloat(math.NaN()))
			bat.MustInsert(monet.VoidValue(), monet.NewFloat(math.Inf(1)))
		}
		bat.MustInsert(monet.VoidValue(), monet.NewFloat(v))
	}
	if err := store.Put("bench/val", bat); err != nil {
		b.Fatal(err)
	}
	return store
}

// ablationBenches returns the ablation's entries, named
// <path>/<layout>/<selectivity>.
func ablationBenches() []microBench {
	var out []microBench
	for _, layout := range ablationLayouts {
		layout := layout
		var vals []float64 // built once per layout, on first use
		for _, sel := range ablationSels {
			width := 1000 * sel.share
			for _, path := range ablationPaths {
				path := path
				var store *monet.Store // built on the entry's first call, kept across b.N ramps
				out = append(out, microBench{path + "/" + layout + "/" + sel.tag, 1, func(b *testing.B) {
					if store == nil {
						if vals == nil {
							vals = ablationValues(layout)
						}
						store = ablationStore(b, path, vals)
					}
					sel := func(i int) {
						lo := float64(i%ablationRanges) * (1000 - width) / ablationRanges
						if _, _, err := store.SelectPositions("bench/val", monet.NewFloat(lo), monet.NewFloat(lo+width)); err != nil {
							b.Fatal(err)
						}
					}
					for i := 0; i < 3*ablationRanges; i++ {
						sel(i) // warm: zone map built, column hot
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						sel(i)
					}
				}})
			}
		}
	}
	return out
}

// printAblation prints the access-path ablation as the Markdown table
// README.md and DESIGN.md §10 carry: one row per layout and
// selectivity, µs/op per road, and the gate's distance from the best.
func printAblation(results []benchfmt.Result) {
	ns := map[string]float64{}
	for _, r := range results {
		ns[r.Name] = r.NsPerOp
	}
	fmt.Println("  | layout | selectivity | typed scan | zone map | gate | gate / best |")
	fmt.Println("  |---|---|---|---|---|---|")
	for _, layout := range ablationLayouts {
		for _, sel := range ablationSels {
			row := fmt.Sprintf("  | %s | %g %% |", layout, sel.share*100)
			best := math.Inf(1)
			for _, path := range ablationPaths {
				v := ns[path+"/"+layout+"/"+sel.tag]
				if path != "GateSelect1M" {
					best = math.Min(best, v)
				}
				row += fmt.Sprintf(" %.0f µs |", v/1e3)
			}
			fmt.Printf("%s %.2fx |\n", row, ns["GateSelect1M/"+layout+"/"+sel.tag]/best)
		}
	}
}

// benchDictEq1M times a string equality select answered by the
// dictionary: 1M rows over 500 distinct labels, ~0.2% selectivity.
func benchDictEq1M(b *testing.B) {
	store := monet.NewStore()
	n := 1 << 20
	bat := monet.NewBATCap(monet.Void, monet.StrT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.VoidValue(), monet.NewStr(fmt.Sprintf("label-%03d", i%500)))
	}
	if err := store.Put("bench/label", bat); err != nil {
		b.Fatal(err)
	}
	eq := monet.NewStr("label-042")
	if _, _, err := store.SelectPositions("bench/label", eq, eq); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.SelectPositions("bench/label", eq, eq); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBATJoin(b *testing.B) {
	const n = 5000
	left := monet.NewBATCap(monet.OIDT, monet.IntT, n)
	right := monet.NewBATCap(monet.IntT, monet.StrT, n)
	for i := 0; i < n; i++ {
		left.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(int64(i)))
		right.MustInsert(monet.NewInt(int64(i)), monet.NewStr("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBATUselect(b *testing.B) {
	const n = 100000
	bat := monet.NewBATCap(monet.OIDT, monet.IntT, n)
	for i := 0; i < n; i++ {
		bat.MustInsert(monet.NewOID(monet.OID(i)), monet.NewInt(int64(i%1000)))
	}
	lo, hi := monet.NewInt(100), monet.NewInt(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Uselect(lo, hi)
	}
}

func benchMILExec(b *testing.B) {
	in := mil.NewInterp(monet.NewStore())
	const prog = `VAR b := new(void,int); b.insert(nil, 41); RETURN b.sum + 1;`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Exec(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMILSelectCount1M times MIL's bat(x).select(lo, hi).count over a
// 1M-row dbl stream at 50 % selectivity — the shape of the benchmark's
// kernel_scan MIL statements: the typed scan, then both gathers of the
// [oid, dbl] result. The stream is the smooth two-sinusoid feature
// series bench/closed.go generates.
func benchMILSelectCount1M(b *testing.B) {
	store := monet.NewStore()
	n := 1 << 20
	bat := monet.NewBATCap(monet.Void, monet.FloatT, n)
	for i := 0; i < n; i++ {
		x := 2 * math.Pi * float64(i) / float64(n)
		bat.MustInsert(monet.VoidValue(), monet.NewFloat(0.5+0.35*math.Sin(5*x+1)+0.15*math.Sin(23*x+2)))
	}
	if err := store.Put("bench/x", bat); err != nil {
		b.Fatal(err)
	}
	in := mil.NewInterp(store)
	const prog = `bat("bench/x").select(0.5, 2.0).count;`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Exec(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHMMEvalParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	pool := hmm.NewEnginePool(7)
	for _, name := range []string{"Service", "Forehand", "Smash", "Backhand", "VolleyBackhand", "VolleyForehand"} {
		m := hmm.NewModel(name, 8, 16)
		m.Randomize(rng)
		if err := pool.Register(m); err != nil {
			b.Fatal(err)
		}
	}
	obs := make([]int, 2000)
	for i := range obs {
		obs[i] = rng.Intn(16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.EvaluateAll(obs); err != nil {
			b.Fatal(err)
		}
	}
}

// servingQuery is the statement the cache benchmarks run: a feature
// threshold over a 1M-sample materialized stream, so every uncached
// execution pays a full 1M-row kernel scan while the result body stays
// a handful of segments.
const servingQuery = `SELECT SEGMENTS FROM v WHERE FEATURE('speed') > 0.5`

// servingServer builds a server over a 1M-sample feature stream,
// attaching a result cache of the given budget (0: no cache).
func servingServer(b *testing.B, cacheBytes int64) *server.Server {
	b.Helper()
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 1 << 17, FPS: 8}); err != nil {
		b.Fatal(err)
	}
	// Half the rows qualify, in long alternating blocks: the kernel's
	// range select (even answered from an index) hands back ~512k
	// qualifying positions that the engine must walk into runs, so an
	// uncached execution pays O(n) work per request while the answer
	// itself stays 8 segments.
	n := 1 << 20
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.1
		if (i>>16)%2 == 0 {
			vals[i] = 0.9
		}
	}
	if _, err := cat.AppendFeatureSamples("v", "speed", 8, vals); err != nil {
		b.Fatal(err)
	}
	srv := server.New(cobra.NewPreprocessor(cat), nil)
	if cacheBytes > 0 {
		srv.SetCache(qcache.New(cacheBytes))
	}
	// One untimed run sanity-checks the response shape.
	var out strings.Builder
	srv.Serve(servingQuery, &out)
	if !strings.HasPrefix(out.String(), "OK ") {
		b.Fatalf("serving fixture query failed:\n%s", out.String())
	}
	return srv
}

// benchUncachedQuery1M times the full serving path with no result
// cache attached: every request parses, plans and scans 1M rows.
func benchUncachedQuery1M(b *testing.B) {
	srv := servingServer(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Serve(servingQuery, io.Discard)
	}
}

// benchCachedQuery1M times the same request answered warm: canonical
// key, epoch fingerprint check, and a replay of the stored body.
func benchCachedQuery1M(b *testing.B) {
	srv := servingServer(b, qcache.DefaultMaxBytes)
	// Warm twice: the first execution may bump its own dependency
	// epochs (lazy materialization), stale-marking the entry it stored.
	srv.Serve(servingQuery, io.Discard)
	srv.Serve(servingQuery, io.Discard)
	if st := srv.Cache().Stats(); st.Entries == 0 {
		b.Fatalf("warmup stored nothing: %+v", st)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Serve(servingQuery, io.Discard)
	}
	if st := srv.Cache().Stats(); st.Hits < int64(b.N) {
		b.Fatalf("timed loop was not all hits: %+v over %d iterations", st, b.N)
	}
}

// benchCacheMissEvict times the cache's worst case on a small corpus:
// a budget sized for a single entry and a rotating set of distinct
// statements, so every request misses, stores, and evicts the previous
// tenant. Isolates miss-path bookkeeping from kernel scan cost.
func benchCacheMissEvict(b *testing.B) {
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 600, FPS: 10}); err != nil {
		b.Fatal(err)
	}
	events := make([]cobra.Event, 0, 200)
	for i := 0; i < 200; i++ {
		events = append(events, cobra.Event{
			Type:       "highlight",
			Interval:   cobra.Interval{Start: float64(i * 3), End: float64(i*3 + 2)},
			Confidence: 0.9,
		})
	}
	if err := cat.PutEvents("v", events); err != nil {
		b.Fatal(err)
	}
	srv := server.New(cobra.NewPreprocessor(cat), nil)
	srv.SetCache(qcache.New(1 << 10))
	stmts := make([]string, 8)
	for i := range stmts {
		stmts[i] = fmt.Sprintf(
			`SELECT SEGMENTS FROM v WHERE EVENT('highlight') LIMIT %d`, 20+i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Serve(stmts[i%len(stmts)], io.Discard)
	}
	if st := srv.Cache().Stats(); st.Hits > 0 && st.Evictions == 0 {
		b.Fatalf("eviction bench degenerated into hits: %+v", st)
	}
}

func benchCOQLQuery(b *testing.B) {
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	if err := cat.PutVideo(cobra.Video{Name: "v", Duration: 600, FPS: 10}); err != nil {
		b.Fatal(err)
	}
	events := make([]cobra.Event, 0, 200)
	for i := 0; i < 200; i++ {
		events = append(events, cobra.Event{
			Type:       "highlight",
			Interval:   cobra.Interval{Start: float64(i * 3), End: float64(i*3 + 2)},
			Confidence: 0.9,
		})
	}
	if err := cat.PutEvents("v", events); err != nil {
		b.Fatal(err)
	}
	eng := query.NewEngine(cobra.NewPreprocessor(cat))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`); err != nil {
			b.Fatal(err)
		}
	}
}
