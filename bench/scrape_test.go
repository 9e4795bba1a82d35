package main

import "testing"

func TestParseScrapes(t *testing.T) {
	c := counters{}
	parseStats([]string{
		"counter qcache.hits 42",
		"gauge wal.recovery_ns 755639",
		"hist wal.fsync count=19 mean_ns=446086 p50_ns=425984 p95_ns=624230 p99_ns=649134 max_ns=606889",
		"garbage",
	}, c)
	parseCacheStats([]string{"qcache.misses 7", "qcache.max_bytes 67108864"}, c)
	parseSubscriptions([]string{
		"s1 dropped=0 SELECT SEGMENTS FROM live-gp WHERE EVENT('passing') LAST 60 S",
		"s2 dropped=3 SELECT SEGMENTS FROM live-gp WHERE FEATURE('audioex') > 0.6",
	}, c)
	want := counters{"qcache.hits": 42, "wal.recovery_ns": 755639, "qcache.misses": 7,
		"qcache.max_bytes": 67108864, "subscriptions.dropped": 3, "subscriptions.count": 2}
	if len(c) != len(want) {
		t.Fatalf("parsed %v, want %v", c, want)
	}
	for k, v := range want {
		if c[k] != v {
			t.Errorf("%s = %g, want %g", k, c[k], v)
		}
	}
}

func TestCounterLayers(t *testing.T) {
	before := counters{"qcache.hits": 10, "qcache.misses": 10, "wal.records": 100, "stream.evals": 0}
	after := counters{"qcache.hits": 40, "qcache.misses": 20, "wal.records": 300, "stream.evals": 500,
		"monet.index.zonemap.morsels_pruned": 3, "monet.index.zonemap.morsels_scanned": 1}
	got := values{}
	counterLayers(after.diff(before), 100, got)
	for name, want := range map[string]float64{
		"qcache.hit_ratio": 75, "wal.records": 2, "stream.evals": 5, "monet.index.zonemap_pruned": 75, "admit.shed": 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
	registered := map[string]bool{}
	for _, d := range perLayer {
		registered[d.Name] = true
	}
	for name := range got {
		if !registered[name] {
			t.Errorf("counterLayers emits %q, which is not a registered per-layer metric", name)
		}
	}
	// No requests, no division by zero.
	empty := values{}
	counterLayers(counters{}, 0, empty)
	if empty["qcache.hit_ratio"] != 0 || empty["wal.bytes"] != 0 {
		t.Errorf("an empty window reports %v", empty)
	}
}

func TestResourceField(t *testing.T) {
	body := []string{
		"# trace t00002a 2026-08-08T10:12:03Z 1.8ms",
		"# query SELECT SEGMENTS FROM monza WHERE FEATURE('speed') > 220",
		"# rows_scanned=36000 rows_returned=3 morsels=3 queue_wait=0s kernel_busy=1ms wal_wait=0s alloc_bytes=4096",
		"coql.query 1.8ms resources=rows_scanned=99",
	}
	if v, ok := resourceField(body, "rows_scanned"); !ok || v != 36000 {
		t.Errorf("rows_scanned = %g, %v; want 36000 from the resource line", v, ok)
	}
	if _, ok := resourceField(body[:2], "rows_scanned"); ok {
		t.Error("found a field in a body without a resource line")
	}
}
