package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

func printEnvironment(env *environment, cfg config, quick bool) {
	fmt.Printf("# cobra bench: commit %s, %s, nproc %d, GOMAXPROCS %d, %d load connections\n",
		env.Commit, env.GoVersion, env.NProc, env.GoMaxProcs, env.Conns)
	fmt.Printf("# seed %d, %g s windows\n", cfg.Seed, cfg.Seconds)
	if quick {
		fmt.Println("# QUICK MODE: short windows and feed; these numbers are NOT comparable with full runs")
	}
}

func printDefs(defs []metricDef, vals values) {
	for _, d := range defs {
		if v, ok := vals[d.Name]; ok {
			fmt.Printf("  %-28s %14.4f %-6s %s is better: %s\n", d.Name, v, d.Unit, d.Better, d.Help)
		}
	}
}

// printResult prints every metric of a run by name and unit.
func printResult(r *runResult) {
	mode, e2e := "untraced", "end-to-end:"
	if r.Traced {
		mode, e2e = "traced", "end-to-end (of the traced run: only for the tracing overhead):"
	}
	fmt.Printf("\n== %s (%s) ==\n", r.Workload, mode)
	fmt.Println(e2e)
	printDefs(endToEnd, r.E2E)
	fmt.Printf("  %-28s %14.6f %-6s (%d failed of %d attempted)\n", "fail_share", per(float64(r.Failed), float64(r.Attempted)), "share", r.Failed, r.Attempted)
	fmt.Println("per-layer:")
	printDefs(perLayer, r.Layers)
	if len(r.Budget) > 0 {
		fmt.Println("budget (one operation at a time; self time as a share of the (all) row):")
		fmt.Printf("  %-8s %-44s %12s %12s %8s %7s\n", "layer", "rung", "time_us", "self_us", "share_%", "n")
		for _, b := range r.Budget {
			fmt.Printf("  %-8s %-44s %12.1f %12.1f %8.1f %7d\n", b.Layer, b.Rung, b.TimeUs, b.SelfUs, b.SharePc, b.N)
		}
	}
	for _, f := range r.Facts {
		fmt.Println("  #", f)
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// benchmarkFile is the part of BENCHMARK.json the harness reads: the
// bounds -repeat compares against, and the names the tests check.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSet runs all four workloads untraced, then traced, repeat times,
// prints every result, the tracing overhead, and — with repeat > 1 —
// the table of the runs against the bounds. It fails when an operation
// failed or two runs of the same code disagree by more than a bound.
func runSet(env *environment, cfg config, repeat int) error {
	bf, err := readBenchmarkFile(env.Root)
	if err != nil {
		return err
	}
	failed := 0
	sets := make([]map[string]*runResult, repeat)
	for rep := range sets {
		sets[rep] = map[string]*runResult{}
		for _, w := range workloads {
			c := cfg
			c.Traced = false
			res, err := execute(env, w.name, c)
			if err != nil {
				return err
			}
			printResult(res)
			sets[rep][w.name] = res
			failed += res.Failed
		}
	}
	for _, w := range workloads {
		c := cfg
		c.Traced = true
		res, err := execute(env, w.name, c)
		if err != nil {
			return err
		}
		printResult(res)
		failed += res.Failed
		rate := "qps"
		if w.name == "live_fanout" || w.name == "live_durable" {
			rate = "aired_x_realtime"
		}
		plain := sets[repeat-1][w.name].E2E[rate]
		fmt.Printf("  tracing overhead: %s %.4f traced against %.4f untraced: %+.2f %%\n",
			rate, res.E2E[rate], plain, 100*worsening("higher", plain, res.E2E[rate]))
	}

	disagree := 0
	if repeat > 1 {
		fmt.Printf("\n== %d runs of the same code against the bounds ==\n", repeat)
		fmt.Printf("%-13s %-17s %12s %12s %9s %7s\n", "workload", "metric", "run 1", fmt.Sprintf("run %d", repeat), "diff_%", "bound_%")
		for _, w := range workloads {
			for _, m := range bf.EndToEnd {
				a, b := sets[0][w.name].E2E[m.Name], sets[repeat-1][w.name].E2E[m.Name]
				d := math.Abs(worsening(m.Better, a, b))
				verdict := ""
				if d > m.Bound {
					verdict = "  DISAGREE"
					disagree++
				}
				fmt.Printf("%-13s %-17s %12.4f %12.4f %9.2f %7.0f%s\n", w.name, m.Name, a, b, 100*d, 100*m.Bound, verdict)
			}
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed", failed)
	case disagree > 0:
		return fmt.Errorf("%d metric pairs of the same code disagree by more than their bound", disagree)
	}
	return nil
}
