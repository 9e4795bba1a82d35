package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceIDMatchesSprintf pins the trace ID form: what fmt's
// "t%06x" renders, padded to six digits and growing past them.
func TestTraceIDMatchesSprintf(t *testing.T) {
	for _, n := range []uint64{0, 1, 0xfffff, 0xffffff, 0x1000000, 1<<64 - 1} {
		if got, want := traceID(n), fmt.Sprintf("t%06x", n); got != want {
			t.Fatalf("traceID(%#x) = %q, want %q", n, got, want)
		}
	}
}

// TestAddChildKeepsTiming: a child attached after the fact reports the
// start and duration it was given and joins its parent's trace.
func TestAddChildKeepsTiming(t *testing.T) {
	start := time.Now().Add(-time.Millisecond)
	root := StartTraceAt("q", start)
	c := root.AddChild("step", start, 250*time.Microsecond)
	if !root.StartTime().Equal(start) || !c.StartTime().Equal(start) || c.Duration() != 250*time.Microsecond {
		t.Fatalf("root start %v, child start %v dur %v", root.StartTime(), c.StartTime(), c.Duration())
	}
	if c.TraceID() != root.TraceID() || len(root.Children()) != 1 {
		t.Fatalf("child trace %q (root %q), %d children", c.TraceID(), root.TraceID(), len(root.Children()))
	}
}

func TestTraceIDsUniqueConcurrent(t *testing.T) {
	const goroutines, perG = 16, 200
	ids := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := StartTrace("q")
				ids <- sp.TraceID()
				sp.Finish()
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if id == "" {
			t.Fatal("empty trace ID")
		}
		if seen[id] {
			t.Fatalf("duplicated trace ID %s", id)
		}
		seen[id] = true
	}
	if len(seen) != goroutines*perG {
		t.Fatalf("lost trace IDs: %d of %d", len(seen), goroutines*perG)
	}
}

func TestTraceRingBoundedAndOrdered(t *testing.T) {
	ring := NewTraceRing(8)
	for i := 0; i < 100; i++ {
		ring.Add(Trace{ID: fmt.Sprintf("t%06x", i), Query: "q"})
	}
	if ring.Len() != 8 {
		t.Fatalf("ring retains %d traces, want 8", ring.Len())
	}
	recent := ring.Recent()
	if len(recent) != 8 {
		t.Fatalf("Recent() = %d entries", len(recent))
	}
	// Newest first: IDs 99 down to 92.
	for i, tr := range recent {
		want := fmt.Sprintf("t%06x", 99-i)
		if tr.ID != want {
			t.Fatalf("Recent()[%d].ID = %s, want %s", i, tr.ID, want)
		}
	}
	if _, ok := ring.Get("t00005f"); !ok { // 95: retained
		t.Fatal("recent trace evicted")
	}
	if _, ok := ring.Get("t000000"); ok { // 0: evicted
		t.Fatal("oldest trace still retained")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	ring := NewTraceRing(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ring.Add(Trace{ID: fmt.Sprintf("g%d-%d", g, i)})
				ring.Recent()
				ring.Get("g0-0")
			}
		}(g)
	}
	wg.Wait()
	if ring.Len() != 16 {
		t.Fatalf("ring over capacity: %d", ring.Len())
	}
}

func TestContextSpanCarriage(t *testing.T) {
	if sp := SpanFromContext(context.Background()); sp != nil {
		t.Fatal("span in empty context")
	}
	if sp := SpanFromContext(nil); sp != nil { //nolint:staticcheck // nil ctx is the untraced path
		t.Fatal("span in nil context")
	}
	root := StartTrace("q")
	ctx := ContextWithSpan(context.Background(), root)
	got := SpanFromContext(ctx)
	if got != root {
		t.Fatal("context did not carry the span")
	}
	// A nil span leaves the context unchanged.
	if ContextWithSpan(ctx, nil) != ctx {
		t.Fatal("nil span rewrapped the context")
	}
	child := got.StartChild("child")
	if child.TraceID() != root.TraceID() {
		t.Fatalf("child trace %q != root %q", child.TraceID(), root.TraceID())
	}
	if child.Resources() != root.Resources() {
		t.Fatal("child does not share the root's resource accumulator")
	}
}

func TestResourcesAccumulateAndNilSafe(t *testing.T) {
	var nilRes *Resources
	nilRes.AddScanned(5)
	nilRes.AddMorsel(time.Millisecond, time.Millisecond)
	nilRes.AddWALWait(time.Millisecond)
	if st := nilRes.Stat(); st != (ResourceStat{}) {
		t.Fatalf("nil Resources stat = %+v", st)
	}

	root := StartTrace("q")
	res := root.Resources()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				res.AddScanned(10)
				res.AddMorsel(time.Microsecond, 2*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	st := res.Stat()
	if st.RowsScanned != 8000 || st.Morsels != 800 {
		t.Fatalf("stat = %+v", st)
	}
	if st.QueueWait != 800*time.Microsecond || st.KernelBusy != 1600*time.Microsecond {
		t.Fatalf("timings = %+v", st)
	}
	s := st.String()
	for _, key := range []string{"rows_scanned=8000", "morsels=800", "queue_wait=", "kernel_busy=", "wal_wait=", "alloc_bytes="} {
		if !strings.Contains(s, key) {
			t.Fatalf("stat string %q missing %s", s, key)
		}
	}
}

func TestDeterministicChildOrder(t *testing.T) {
	// Children attach in StartChild call order even when finished
	// concurrently — the ordering contract morsel spans rely on.
	root := StartTrace("q")
	const n = 50
	spans := make([]*Span, n)
	for i := 0; i < n; i++ {
		spans[i] = root.StartChild(fmt.Sprintf("m%02d", i))
	}
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- {
		wg.Add(1)
		go func(sp *Span) {
			defer wg.Done()
			sp.Finish()
		}(spans[i])
	}
	wg.Wait()
	root.Finish()
	kids := root.Children()
	if len(kids) != n {
		t.Fatalf("children = %d, want %d", len(kids), n)
	}
	for i, c := range kids {
		if want := fmt.Sprintf("m%02d", i); c.Name() != want {
			t.Fatalf("child %d = %s, want %s", i, c.Name(), want)
		}
	}
}

func TestSlowLogRetainsTrace(t *testing.T) {
	log := NewSlowLog(4)
	log.SetThreshold(time.Millisecond)
	root := StartTrace("q")
	child := root.StartChild("monet.select")
	child.Finish()
	root.Finish()
	if !log.RecordTrace("SELECT ...", 5*time.Millisecond, root) {
		t.Fatal("slow query not recorded")
	}
	es := log.Entries()
	if len(es) != 1 {
		t.Fatalf("entries = %d", len(es))
	}
	if es[0].TraceID != root.TraceID() || es[0].Root != root {
		t.Fatalf("entry lost its trace: %+v", es[0])
	}
	// Ring stays bounded under concurrent traced records.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := StartTrace("q")
				r.Finish()
				log.RecordTrace("q", 2*time.Millisecond, r)
				log.Entries()
			}
		}()
	}
	wg.Wait()
	if log.Len() != 4 {
		t.Fatalf("slow log over capacity: %d", log.Len())
	}
}

// TestChromeTraceSchema validates the exported JSON against the
// trace-event schema: an object with a traceEvents array of complete
// events, each carrying name/cat/ph/ts/dur/pid/tid with ph == "X",
// non-negative microsecond timestamps, and the span/trace identity in
// args.
func TestChromeTraceSchema(t *testing.T) {
	root := StartTrace("coql.query")
	root.SetAttr("level", "conceptual")
	child := root.StartChild("mil.exec")
	grand := child.StartChild("monet.morsel")
	grand.SetAttr("morsel", "0")
	time.Sleep(time.Millisecond)
	grand.Finish()
	child.Finish()
	root.Finish()

	data, err := ChromeTraceJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
		DisplayUnit string                       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
	var prevTs float64 = -1
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "cat", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %s", i, field, data)
			}
		}
		var ph, name string
		var ts, dur float64
		var pid, tid int
		mustUnmarshal(t, ev["ph"], &ph)
		mustUnmarshal(t, ev["name"], &name)
		mustUnmarshal(t, ev["ts"], &ts)
		mustUnmarshal(t, ev["dur"], &dur)
		mustUnmarshal(t, ev["pid"], &pid)
		mustUnmarshal(t, ev["tid"], &tid)
		if ph != "X" {
			t.Fatalf("event %d ph = %q, want X", i, ph)
		}
		if ts < 0 || dur <= 0 {
			t.Fatalf("event %d ts=%v dur=%v", i, ts, dur)
		}
		if pid != 1 || tid != 1 {
			t.Fatalf("event %d pid=%d tid=%d", i, pid, tid)
		}
		// Depth-first export: parents precede children, so ts ascends.
		if ts < prevTs {
			t.Fatalf("event %d ts %v before predecessor %v", i, ts, prevTs)
		}
		prevTs = ts
		var args map[string]string
		mustUnmarshal(t, ev["args"], &args)
		if args["trace_id"] != root.TraceID() {
			t.Fatalf("event %d trace_id = %q, want %q", i, args["trace_id"], root.TraceID())
		}
		if args["span_id"] == "" || args["span_id"] == "0" {
			t.Fatalf("event %d span_id = %q", i, args["span_id"])
		}
	}
	if ChromeTrace(nil) != nil {
		t.Fatal("nil root exported events")
	}
	empty, err := ChromeTraceJSON(nil)
	if err != nil || !strings.Contains(string(empty), `"traceEvents":[]`) {
		t.Fatalf("nil root JSON = %s, %v", empty, err)
	}
}

func mustUnmarshal(t *testing.T, raw json.RawMessage, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("coql.queries").Add(7)
	r.Gauge("pool.workers").Set(4)
	h := r.Histogram("coql.query.latency")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond)
	}
	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cobra_coql_queries counter\ncobra_coql_queries 7\n",
		"# TYPE cobra_pool_workers gauge\ncobra_pool_workers 4\n",
		"# TYPE cobra_coql_query_latency_count gauge\ncobra_coql_query_latency_count 100\n",
		"cobra_coql_query_latency_p50_ns ",
		"cobra_coql_query_latency_p95_ns ",
		"cobra_coql_query_latency_p99_ns ",
		"cobra_coql_query_latency_max_ns ",
		"cobra_go_goroutines ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPromHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("server.requests").Inc()
	srv := httptest.NewServer(PromHandler(r))
	defer srv.Close()

	res := httpGet(t, srv.URL, "")
	if ct := res.ct; ct != PromContentType {
		t.Fatalf("default Content-Type = %q", ct)
	}
	if !strings.Contains(res.body, "# TYPE cobra_server_requests counter") {
		t.Fatalf("default body not Prometheus text:\n%s", res.body)
	}

	res = httpGet(t, srv.URL, "application/json")
	if !strings.Contains(res.ct, "application/json") {
		t.Fatalf("negotiated Content-Type = %q", res.ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(res.body), &snap); err != nil {
		t.Fatalf("negotiated body not JSON: %v", err)
	}
	if snap.Counters["server.requests"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// getResult is one HTTP GET's Content-Type and body.
type getResult struct {
	ct   string
	body string
}

func httpGet(t *testing.T, url, accept string) getResult {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return getResult{ct: res.Header.Get("Content-Type"), body: string(body)}
}
