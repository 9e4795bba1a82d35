package main

import "fmt"

// metricDef names one metric the harness emits. BENCHMARK.json lists
// the same names; a unit test keeps the two in step.
type metricDef struct {
	Name, Unit, Better string
	// Help is the one-line definition printed in the report.
	Help string
}

// endToEnd is what a user of the system would see. Every workload
// emits every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "preparation to first timed operation: data once plus the median of three boots; live_*: one boot, which extracts the race"},
	{"qps", "1/s", "higher", "OK responses per second: closed loop on 2 connections, or the open-loop reader (100 req/s) beside the feed"},
	{"p50_ms", "ms", "lower", "median ad-hoc request latency (open loop: from the due time)"},
	{"p95_ms", "ms", "lower", "95th percentile ad-hoc request latency"},
	{"aired_x_realtime", "x", "higher", "broadcast seconds made queryable per wall second: by the saturating feed in live_*, by set-up ingest elsewhere"},
	{"peak_rss_mb", "MB", "lower", "server VmHWM at the end of the run"},
}

// perLayer is one or more figures per package of this repository,
// taken from outside: the server's own counters around the timed window
// and the ladder replay of a traced run. "Per request" reads "per tick"
// on the live workloads, whose unit of work is the feed tick. A figure
// that does not apply to a workload reads 0.
var perLayer = []metricDef{
	{"server.ping_us", "us", "lower", "PING round trip over loopback TCP, p50"},
	{"server.wire_us", "us", "lower", "TCP p50 minus in-process Server.Serve p50 on the same statements"},
	{"server.middleware_us", "us", "lower", "Server.Serve p50 minus direct execution p50 on statements that miss the cache"},
	{"server.push_span_ms", "ms", "lower", "first to last pushed frame of one watermark, p50"},
	{"admit.shed", "count", "lower", "requests shed with BUSY during the window"},
	{"qcache.hit_ratio", "%", "higher", "result-cache hits per lookup during the window"},
	{"qcache.evictions", "count", "lower", "result-cache evictions during the window"},
	{"qcache.invalidations", "count", "lower", "entries discarded on an epoch mismatch, per request"},
	{"query.parse_us", "us", "lower", "query.Parse p50"},
	{"query.eval_us", "us", "lower", "Engine.Run p50 minus parse and catalog leaf calls, on COQL statements that miss the cache"},
	{"mil.exec_us", "us", "lower", "direct execution p50 of the MIL statements"},
	{"monet.select_ms", "ms", "lower", "monet.Store select on the predicates of the FEATURE statements, p50"},
	{"monet.rows_scanned", "count", "lower", "rows scanned per traced COQL request (server trace ring)"},
	{"monet.index.selects", "count", "higher", "selects answered through an adaptive access path, per request"},
	{"monet.index.zonemap_pruned", "%", "higher", "morsels pruned by zone maps, of those considered"},
	{"monet.index.cracks", "count", "lower", "cracker partition steps per request"},
	{"monet.fused.pipelines", "count", "higher", "fused pipelines run per request"},
	{"monet.fused.fallbacks", "count", "lower", "fused pipelines that fell back to operator-at-a-time, per request"},
	{"monet.append_us", "us", "lower", "mean LiveIngestor.Step with no journal attached: the in-memory appends of one tick"},
	{"stream.advance_ms", "ms", "lower", "mean Manager.Advance at the workload's subscription count"},
	{"stream.evals", "count", "lower", "standing-query evaluations per tick"},
	{"stream.evals_skipped", "count", "higher", "evaluations the epoch gate skipped, per tick"},
	{"stream.dropped", "count", "lower", "frames dropped from subscriber queues during the window"},
	{"wal.journal_us_per_tick", "us", "lower", "mean LiveIngestor.Step with a journal minus without"},
	{"wal.records", "count", "lower", "WAL records per tick"},
	{"wal.fsyncs", "count", "lower", "WAL fsyncs per tick"},
	{"wal.bytes", "B", "lower", "WAL bytes per tick"},
	{"wal.bytes_per_user_byte", "B/B", "lower", "WAL bytes per byte of appended samples and events"},
	{"wal.recovery_s", "s", "lower", "recovery time of the restart after kill -9"},
	{"cobra.extract_s", "s", "lower", "extraction time per video, from cobra-ingest"},
	{"f1.extract_s_per_race_s", "s/s", "lower", "f1.Extract seconds per broadcast second"},
}

// values maps metric names to what one run measured.
type values map[string]float64

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload string
	Traced   bool
	E2E      values
	Layers   values
	// Facts are printed but neither gated nor compared: p99, sample
	// counts, generator lateness, server flags, calibration.
	Facts []string
	// Budget is the per-layer table of a traced run.
	Budget []budgetRow
	// Attempted counts every operation whose outcome was checked;
	// Failed those that erred, timed out, were dropped or mismatched.
	Attempted, Failed int
	// Failures describes the first few failed operations.
	Failures []string
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) fact(format string, args ...any) {
	r.Facts = append(r.Facts, fmt.Sprintf(format, args...))
}

// budgetRow is one rung of the ladder: what it measured, its time
// (class-weighted median, or mean per tick) and the part of it the rung
// below does not explain, scaled to one operation of the (all) row.
type budgetRow struct {
	Layer   string
	Rung    string
	TimeUs  float64
	SelfUs  float64
	SharePc float64
	N       int
}
