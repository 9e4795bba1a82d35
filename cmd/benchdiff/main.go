// Command benchdiff compares a cobra-bench microbenchmark run against
// a committed baseline and fails when any tracked operation regresses
// past the threshold — the CI bench-gate that keeps the kernel's
// parallel-operator wins from being silently given back.
//
// Usage:
//
//	benchdiff -baseline BENCH_baseline.json -current BENCH_pr.json [-threshold 0.25] [-allocs-gate 0.25] [-allow-missing Op1,Op2]
//
// Both files are cobra-bench -benchout combined JSON (see
// internal/benchfmt). Every operation in the baseline is checked: the
// command prints a per-op table and exits non-zero if any op's ns/op
// grew by more than the threshold (default +25%), disappeared from
// the current run, has a corrupt (non-positive) baseline entry, ran at
// a different pinned pool width than the baseline (parallel numbers
// are only comparable at equal widths), or was pinned — in either
// file — to a pool wider than that run's GOMAXPROCS (such a number
// measures the scheduler, not the operator: re-record it).
// -allocs-gate additionally fails any op whose allocs/op grew by more
// than the given fraction (0.25 = +25%), or that allocates at all when
// its baseline was allocation-free — the gate that keeps the
// fused-pipeline steady-state allocation wins from being given back.
// Allocation counts are deterministic where ns/op is noisy, so the
// gate can run tight. A negative value (the default) disables it.
// -allow-missing names baseline ops — comma-separated — that may be
// absent from the current run without failing the gate, for retired
// benchmarks whose baseline entry hasn't been pruned yet. Every op
// actually dropped this way is summarized on stdout ("dropped ops:
// ...") so a PR reviewer sees exactly which coverage the run gave up,
// and allowlist entries that matched nothing are called out as stale —
// both are reminders to prune, neither fails the gate. Operations new
// in the current run pass untracked until they land in the baseline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cobra/internal/benchfmt"
)

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline results")
	current := flag.String("current", "BENCH_pr.json", "freshly measured results")
	threshold := flag.Float64("threshold", 0.25, "maximum allowed ns/op growth (0.25 = +25%)")
	allocsGate := flag.Float64("allocs-gate", -1, "maximum allowed allocs/op growth (0.25 = +25%); negative disables the gate")
	allowMissing := flag.String("allow-missing", "", "comma-separated baseline ops allowed to be absent from the current run")
	flag.Parse()

	base, err := benchfmt.Read(*baseline)
	if err != nil {
		fatal(err)
	}
	cur, err := benchfmt.Read(*current)
	if err != nil {
		fatal(err)
	}
	if report(os.Stdout, base, cur, *threshold, *allocsGate, allowlist(*allowMissing)) {
		os.Exit(1)
	}
}

// allowlist parses the -allow-missing value into a set of op names.
func allowlist(s string) map[string]bool {
	set := map[string]bool{}
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			set[name] = true
		}
	}
	return set
}

// report prints the per-op comparison table to w and returns whether
// any tracked operation regressed. Baseline ops named in allowMissing
// may be absent from the current run without failing the gate; a
// non-negative allocsGate additionally fails ops whose allocs/op grew
// past it.
func report(w io.Writer, base, cur *benchfmt.File, threshold, allocsGate float64, allowMissing map[string]bool) bool {
	fmt.Fprintf(w, "benchdiff: baseline %s/%s GOMAXPROCS=%d vs current %s/%s GOMAXPROCS=%d (threshold +%.0f%%)\n",
		base.GOOS, base.GOARCH, base.GOMAXPROCS, cur.GOOS, cur.GOARCH, cur.GOMAXPROCS, threshold*100)
	if allocsGate >= 0 {
		fmt.Fprintf(w, "benchdiff: allocs gate active (+%.0f%%)\n", allocsGate*100)
	}
	failed := false
	var dropped []string
	for _, d := range benchfmt.Compare(base, cur, threshold) {
		switch {
		case d.Missing && allowMissing[d.Name]:
			dropped = append(dropped, d.Name)
			fmt.Fprintf(w, "  skip %-24s %12.0f ns/op -> (missing, allowlisted)\n", d.Name, d.BaseNs)
		case d.Missing:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s %12.0f ns/op -> (missing from current run)\n", d.Name, d.BaseNs)
		case d.BadBaseline:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s %12.0f ns/op baseline is not positive: re-measure the baseline\n", d.Name, d.BaseNs)
		case d.WidthChanged:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s pool width changed (baseline w%d, current w%d): incomparable runs\n",
				d.Name, d.BaseWidth, d.CurWidth)
		case d.Oversubscribed:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s pool width w%d exceeds GOMAXPROCS (baseline %d, current %d): refusing to compare\n",
				d.Name, d.BaseWidth, base.GOMAXPROCS, cur.GOMAXPROCS)
		case d.Regressed:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s %12.0f ns/op -> %12.0f ns/op (%+.1f%%)\n",
				d.Name, d.BaseNs, d.CurNs, (d.Ratio-1)*100)
		case allocsGate >= 0 && d.AllocsGrewFromZero:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s %12d allocs/op -> %12d allocs/op (was allocation-free)\n",
				d.Name, d.BaseAllocs, d.CurAllocs)
		case allocsGate >= 0 && d.AllocRatio > 1+allocsGate:
			failed = true
			fmt.Fprintf(w, "  FAIL %-24s %12d allocs/op -> %12d allocs/op (%+.1f%%)\n",
				d.Name, d.BaseAllocs, d.CurAllocs, (d.AllocRatio-1)*100)
		default:
			fmt.Fprintf(w, "  ok   %-24s %12.0f ns/op -> %12.0f ns/op (%+.1f%%)\n",
				d.Name, d.BaseNs, d.CurNs, (d.Ratio-1)*100)
		}
	}
	// The dropped-op summary: every tracked op the allowlist excused
	// this run, on one line a reviewer can read without scanning the
	// table. Coverage given up silently tends to stay given up.
	if len(dropped) > 0 {
		fmt.Fprintf(w, "benchdiff: dropped ops (allowlisted, absent from current run): %s\n",
			strings.Join(dropped, ", "))
	}
	if stale := unusedAllowlist(allowMissing, dropped); len(stale) > 0 {
		fmt.Fprintf(w, "benchdiff: warning: allowlist entries matched no missing baseline op (stale, prune them): %s\n",
			strings.Join(stale, ", "))
	}
	if failed {
		fmt.Fprintln(w, "benchdiff: performance regression detected")
	} else {
		fmt.Fprintln(w, "benchdiff: all tracked ops within threshold")
	}
	return failed
}

// unusedAllowlist returns the -allow-missing names that excused
// nothing this run, sorted for stable output.
func unusedAllowlist(allowMissing map[string]bool, dropped []string) []string {
	used := map[string]bool{}
	for _, name := range dropped {
		used[name] = true
	}
	var stale []string
	for name := range allowMissing {
		if !used[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	return stale
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
