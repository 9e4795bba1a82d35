package main

import (
	"fmt"
	"strconv"
	"strings"

	"cobra/internal/server"
)

// counters is one scrape of the server's own bookkeeping: the STATS
// counters and gauges, the CACHESTATS pairs, and the summed dropped=
// of SUBSCRIPTIONS under "subscriptions.dropped". The harness diffs
// two scrapes around a timed window; it adds no counter of its own to
// the server.
type counters map[string]float64

// parseStats reads STATS body lines: "counter <name> <v>", "gauge
// <name> <v>"; histogram lines are skipped.
func parseStats(lines []string, into counters) {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 3 && (f[0] == "counter" || f[0] == "gauge") {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				into[f[1]] = v
			}
		}
	}
}

// parseCacheStats reads CACHESTATS body lines: "<name> <v>".
func parseCacheStats(lines []string, into counters) {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				into[f[0]] = v
			}
		}
	}
}

// parseSubscriptions sums the dropped= counts of SUBSCRIPTIONS body
// lines: "<id> dropped=<n> <query>".
func parseSubscriptions(lines []string, into counters) {
	dropped := 0.0
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 2 {
			if n, ok := strings.CutPrefix(f[1], "dropped="); ok {
				if v, err := strconv.ParseFloat(n, 64); err == nil {
					dropped += v
				}
			}
		}
	}
	into["subscriptions.dropped"] = dropped
	into["subscriptions.count"] = float64(len(lines))
}

// scrape snapshots STATS, CACHESTATS and SUBSCRIPTIONS over c.
func scrape(c *server.Client) (counters, error) {
	out := counters{}
	lines, err := c.Do("STATS")
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	parseStats(lines, out)
	if lines, err = c.Do("CACHESTATS"); err != nil {
		return nil, fmt.Errorf("CACHESTATS: %w", err)
	}
	parseCacheStats(lines, out)
	if lines, err = c.Do("SUBSCRIPTIONS"); err != nil {
		return nil, fmt.Errorf("SUBSCRIPTIONS: %w", err)
	}
	parseSubscriptions(lines, out)
	return out, nil
}

// diff returns after − before for every name in after.
func (after counters) diff(before counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// per divides safely: a window with no requests or ticks reports 0.
func per(x, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return x / n
}

// counterLayers turns a counter diff into the per-layer counts, per
// unit of work (request or tick).
func counterLayers(d counters, units float64, into values) {
	lookups := d["qcache.hits"] + d["qcache.misses"]
	into["qcache.hit_ratio"] = 100 * per(d["qcache.hits"], lookups)
	into["qcache.evictions"] = d["qcache.evictions"]
	into["qcache.invalidations"] = per(d["qcache.invalidations"], units)
	into["admit.shed"] = d["admit.shed"]
	into["monet.index.selects"] = per(d["monet.index.selects"], units)
	considered := d["monet.index.zonemap.morsels_pruned"] + d["monet.index.zonemap.morsels_scanned"]
	into["monet.index.zonemap_pruned"] = 100 * per(d["monet.index.zonemap.morsels_pruned"], considered)
	into["monet.index.cracks"] = per(d["monet.index.crack.cracks"], units)
	into["monet.fused.pipelines"] = per(d["monet.fused.pipelines"], units)
	into["monet.fused.fallbacks"] = per(d["monet.fused.fallbacks"], units)
	into["stream.evals"] = per(d["stream.evals"], units)
	into["stream.evals_skipped"] = per(d["stream.evals_skipped"], units)
	into["stream.dropped"] = d["stream.dropped"]
	into["wal.records"] = per(d["wal.records"], units)
	into["wal.fsyncs"] = per(d["wal.fsyncs"], units)
	into["wal.bytes"] = per(d["wal.bytes"], units)
}

// rowsScanned averages rows_scanned= over the server's trace ring (the
// last 64 completed traces: one-shot requests and standing-query
// evaluations alike), the one place the server reports it.
func rowsScanned(c *server.Client) (float64, error) {
	list, err := c.Do("TRACEDUMP")
	if err != nil {
		return 0, fmt.Errorf("TRACEDUMP: %w", err)
	}
	sum, n := 0.0, 0
	for _, l := range list {
		id, _, _ := strings.Cut(strings.TrimSpace(l), " ")
		if id == "#" {
			continue // the "# <n> traces" header
		}
		body, err := c.Do("TRACEDUMP " + id)
		if err != nil {
			continue // the ring moved on; the next entry will do
		}
		if v, ok := resourceField(body, "rows_scanned"); ok {
			sum += v
			n++
		}
	}
	return per(sum, float64(n)), nil
}

// resourceField reads one field of a trace's resource line,
// "# rows_scanned=<n> rows_returned=<n> ...".
func resourceField(traceBody []string, name string) (float64, bool) {
	for _, l := range traceBody {
		if !strings.HasPrefix(l, "# ") {
			continue
		}
		for _, f := range strings.Fields(l) {
			if v, ok := strings.CutPrefix(f, name+"="); ok {
				x, err := strconv.ParseFloat(v, 64)
				return x, err == nil
			}
		}
	}
	return 0, false
}
