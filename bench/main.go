// Command bench is the end-to-end and per-layer benchmark of this
// repository: it builds the real cobra-server and cobra-ingest, boots
// them as child processes, drives them over loopback TCP, checks every
// response, and prints every metric by name and unit. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh                       # all four workloads, untraced and traced
//	bash bench/run.sh --workload kernel_scan --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -quick                # smoke run, numbers not comparable
//	bash bench/run.sh -repeat 2             # the whole set twice, compared against the bounds
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// workloads maps the names BENCHMARK.json lists to their runners.
var workloads = []struct {
	name string
	run  func(env *environment, cfg config, log *spanLog) (*runResult, error)
}{
	{"adhoc_paper", func(env *environment, cfg config, log *spanLog) (*runResult, error) {
		return runClosed(env, &adhocPaperSpec, cfg, log)
	}},
	{"kernel_scan", func(env *environment, cfg config, log *spanLog) (*runResult, error) {
		return runClosed(env, &kernelScanSpec, cfg, log)
	}},
	{"live_fanout", func(env *environment, cfg config, log *spanLog) (*runResult, error) {
		return runLive(env, &liveFanoutSpec, cfg, log)
	}},
	{"live_durable", func(env *environment, cfg config, log *spanLog) (*runResult, error) {
		return runLive(env, &liveDurableSpec, cfg, log)
	}},
}

// runLimit is how long one run of one workload may take before the
// watchdog stops every child and exits: a hung server must not hang
// the caller.
const runLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 10, "length of a timed window")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced run and reports the per-layer metrics")
	quick := flag.Bool("quick", false, "smoke mode: 2 s windows; the numbers are not comparable with full runs")
	repeat := flag.Int("repeat", 1, "run the whole set this many times and compare the runs against the bounds of BENCHMARK.json")
	root := flag.String("root", "", "repository root (default: . or ..)")
	flag.Parse()

	if *quick {
		*seconds = 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		killAllChildren()
		os.Exit(2)
	}()
	if err := run(*workload, cfg, *root, *quick, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workload string, cfg config, root string, quick bool, repeat int) error {
	if cfg.Seconds < 1 || cfg.Seconds > 60 {
		return fmt.Errorf("-seconds %g: want 1..60", cfg.Seconds)
	}
	env, err := prepareEnvironment(root)
	if err != nil {
		return err
	}
	printEnvironment(env, cfg, quick)
	if workload != "" {
		return runOne(env, workload, cfg)
	}
	return runSet(env, cfg, repeat)
}

// watchdog stops everything when a run overstays.
func watchdog(what string) *time.Timer {
	return time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s exceeded %v; stopping children\n", what, runLimit)
		killAllChildren()
		os.Exit(2)
	})
}

// execute runs one workload once, traced or not, and writes the span
// file of a traced run.
func execute(env *environment, name string, cfg config) (*runResult, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		defer watchdog(name).Stop()
		var log *spanLog
		if cfg.Traced {
			log = newSpanLog()
		}
		res, err := w.run(env, cfg, log)
		if err != nil {
			killAllChildren()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if log != nil {
			path := filepath.Join(env.Root, buildDirName, fmt.Sprintf("spans-%s-seed%d.json", name, cfg.Seed))
			if err := log.write(path); err != nil {
				return nil, err
			}
			res.fact("%d spans written to %s", len(log.spans), strings.TrimPrefix(path, env.Root+string(filepath.Separator)))
		}
		return res, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// runOne is the driver's entry: one workload, one JSON line.
func runOne(env *environment, name string, cfg config) error {
	res, err := execute(env, name, cfg)
	if err != nil {
		return err
	}
	printResult(res)
	defs, vals := endToEnd, res.E2E
	if cfg.Traced {
		defs, vals = perLayer, res.Layers
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metric{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}
