package main

import (
	"strings"
	"testing"

	"cobra/internal/benchfmt"
)

func baseFile() *benchfmt.File {
	return &benchfmt.File{
		GOOS:       "linux",
		GOARCH:     "amd64",
		GOMAXPROCS: 4,
		Results: []benchfmt.Result{
			{Name: "ParallelSelect1M", NsPerOp: 4_000_000},
			{Name: "SerialSelect1M", NsPerOp: 10_000_000},
		},
	}
}

// TestSyntheticRegressionFails is the bench-gate acceptance check: a
// synthetic 25%+ slowdown on one tracked op must fail the comparison.
func TestSyntheticRegressionFails(t *testing.T) {
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 5_000_000}, // +25% exactly: allowed
		{Name: "SerialSelect1M", NsPerOp: 12_600_000},  // +26%: regression
	}}
	var b strings.Builder
	if !report(&b, baseFile(), cur, 0.25, -1, nil) {
		t.Fatalf("synthetic 26%% regression passed the gate:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "FAIL SerialSelect1M") {
		t.Fatalf("regressed op not named:\n%s", out)
	}
	if !strings.Contains(out, "ok   ParallelSelect1M") {
		t.Fatalf("+25%%-exact op should pass:\n%s", out)
	}
}

func TestWithinThresholdPasses(t *testing.T) {
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 4_100_000},
		{Name: "SerialSelect1M", NsPerOp: 9_000_000},
	}}
	var b strings.Builder
	if report(&b, baseFile(), cur, 0.25, -1, nil) {
		t.Fatalf("in-threshold run failed the gate:\n%s", b.String())
	}
}

func TestMissingOpFails(t *testing.T) {
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 4_000_000},
	}}
	var b strings.Builder
	if !report(&b, baseFile(), cur, 0.25, -1, nil) {
		t.Fatal("missing tracked op passed the gate")
	}
	if !strings.Contains(b.String(), "missing from current run") {
		t.Fatalf("missing op not reported:\n%s", b.String())
	}
}

// TestAllowMissingSkips lets a retired benchmark's baseline entry be
// absent from the current run without failing, while a non-allowlisted
// missing op still fails.
func TestAllowMissingSkips(t *testing.T) {
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 4_000_000},
	}}
	var b strings.Builder
	if report(&b, baseFile(), cur, 0.25, -1, allowlist("SerialSelect1M")) {
		t.Fatalf("allowlisted missing op failed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "skip SerialSelect1M") {
		t.Fatalf("allowlisted op not reported as skipped:\n%s", b.String())
	}
	b.Reset()
	if !report(&b, baseFile(), cur, 0.25, -1, allowlist("SomeOtherOp")) {
		t.Fatal("non-allowlisted missing op passed the gate")
	}
}

// TestZeroBaselineFails guards the ratio math: a corrupt baseline
// entry with 0 ns/op must fail loudly instead of computing Ratio=0
// and waving any slowdown through.
func TestZeroBaselineFails(t *testing.T) {
	base := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 0},
	}}
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 9_000_000_000},
	}}
	var b strings.Builder
	if !report(&b, base, cur, 0.25, -1, nil) {
		t.Fatalf("zero-ns/op baseline passed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "baseline is not positive") {
		t.Fatalf("bad baseline not called out:\n%s", b.String())
	}
}

// TestAllocsGate exercises the -allocs-gate paths: growth past the
// gate fails, growth within it passes, growth from an allocation-free
// baseline fails regardless of ratio, and a disabled gate (negative)
// ignores allocations entirely.
func TestAllocsGate(t *testing.T) {
	base := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelGroupAgg1M", NsPerOp: 4_000_000, AllocsPerOp: 400},
		{Name: "ZeroAllocOp", NsPerOp: 1_000_000, AllocsPerOp: 0},
	}}
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelGroupAgg1M", NsPerOp: 4_000_000, AllocsPerOp: 520}, // +30% allocs
		{Name: "ZeroAllocOp", NsPerOp: 1_000_000, AllocsPerOp: 0},
	}}
	var b strings.Builder
	if !report(&b, base, cur, 0.25, 0.25, nil) {
		t.Fatalf("+30%% allocs growth passed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "FAIL ParallelGroupAgg1M") || !strings.Contains(b.String(), "allocs/op") {
		t.Fatalf("allocs regression not named:\n%s", b.String())
	}

	b.Reset()
	cur.Results[0].AllocsPerOp = 480 // +20%: within the gate
	if report(&b, base, cur, 0.25, 0.25, nil) {
		t.Fatalf("in-gate allocs growth failed:\n%s", b.String())
	}

	b.Reset()
	cur.Results[1].AllocsPerOp = 3 // growth from an allocation-free baseline
	if !report(&b, base, cur, 0.25, 0.25, nil) {
		t.Fatalf("growth from zero allocs passed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "was allocation-free") {
		t.Fatalf("zero-baseline growth not called out:\n%s", b.String())
	}

	b.Reset()
	cur.Results[0].AllocsPerOp = 40_000 // wildly worse, but the gate is off
	if report(&b, base, cur, 0.25, -1, nil) {
		t.Fatalf("disabled allocs gate still failed the run:\n%s", b.String())
	}
}

func TestAllowlistParsing(t *testing.T) {
	set := allowlist(" A, B ,,C")
	for _, name := range []string{"A", "B", "C"} {
		if !set[name] {
			t.Fatalf("%s missing from allowlist %v", name, set)
		}
	}
	if len(allowlist("")) != 0 {
		t.Fatal("empty flag should yield an empty allowlist")
	}
}

// TestDroppedOpsSummarized checks the reviewer-facing summary: every
// allowlist-excused op is named on one "dropped ops" line.
func TestDroppedOpsSummarized(t *testing.T) {
	base := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 4_000_000},
		{Name: "RetiredA", NsPerOp: 1_000_000},
		{Name: "RetiredB", NsPerOp: 2_000_000},
	}}
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 4_000_000},
	}}
	var b strings.Builder
	if report(&b, base, cur, 0.25, -1, allowlist("RetiredA,RetiredB")) {
		t.Fatalf("allowlisted run failed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "dropped ops (allowlisted, absent from current run): RetiredA, RetiredB") {
		t.Fatalf("dropped-op summary missing:\n%s", b.String())
	}
	if strings.Contains(b.String(), "stale") {
		t.Fatalf("fully used allowlist flagged as stale:\n%s", b.String())
	}
}

// TestStaleAllowlistWarned checks that entries excusing nothing — a
// typo, or an op since restored to the run — are called out without
// failing the gate.
func TestStaleAllowlistWarned(t *testing.T) {
	cur := &benchfmt.File{Results: []benchfmt.Result{
		{Name: "ParallelSelect1M", NsPerOp: 4_000_000},
		{Name: "SerialSelect1M", NsPerOp: 10_000_000},
	}}
	var b strings.Builder
	if report(&b, baseFile(), cur, 0.25, -1, allowlist("SerialSelect1M,NoSuchOp")) {
		t.Fatalf("stale allowlist failed the gate:\n%s", b.String())
	}
	out := b.String()
	if !strings.Contains(out, "matched no missing baseline op (stale, prune them): NoSuchOp, SerialSelect1M") {
		t.Fatalf("stale entries not warned:\n%s", out)
	}
	if strings.Contains(out, "dropped ops") {
		t.Fatalf("nothing was dropped but a summary printed:\n%s", out)
	}
}

// TestOversubscribedBaselineFails: an op the baseline recorded at a
// pool width above its own GOMAXPROCS fails the gate with a message
// saying why, however the current run measured it.
func TestOversubscribedBaselineFails(t *testing.T) {
	base := &benchfmt.File{GOMAXPROCS: 1, Results: []benchfmt.Result{{Name: "Select1M/w4", NsPerOp: 20_000_000, Width: 4}}}
	cur := &benchfmt.File{GOMAXPROCS: 4, Results: []benchfmt.Result{{Name: "Select1M/w4", NsPerOp: 5_000_000, Width: 4}}}
	var b strings.Builder
	if !report(&b, base, cur, 0.25, -1, nil) {
		t.Fatalf("oversubscribed baseline op passed the gate:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "FAIL Select1M/w4") || !strings.Contains(b.String(), "exceeds GOMAXPROCS") {
		t.Fatalf("refusal not explained:\n%s", b.String())
	}
}
