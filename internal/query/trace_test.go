package query

import (
	"strings"
	"testing"

	"cobra/internal/monet"
	"cobra/internal/obs"
)

// collectSpans walks a span tree depth-first and returns every span
// with the given name.
func collectSpans(root *obs.Span, name string) []*obs.Span {
	var out []*obs.Span
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s == nil {
			return
		}
		if s.Name() == name {
			out = append(out, s)
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	return out
}

// levelsIn returns the set of "level" attribute values present in a
// span tree.
func levelsIn(root *obs.Span) map[string]bool {
	levels := map[string]bool{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if l := s.Attr("level"); l != "" {
			levels[l] = true
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	return levels
}

// TestRunTracedSpansAllLevels is the tracing acceptance test: one
// traced COQL query must yield a span tree covering all three DBMS
// levels — conceptual (coql.query), logical (coql.eval / eval:feature)
// and physical (monet.select with the cost-gate access path, plus
// morsel spans carrying queue-wait attribution) — with per-query
// resources attached and the trace retained in the default ring.
func TestRunTracedSpansAllLevels(t *testing.T) {
	// Morsel fan-out needs a pool wider than one worker; the default
	// follows GOMAXPROCS, which may be 1 on small CI machines.
	prev := monet.SetDefaultPoolWorkers(4)
	defer monet.SetDefaultPoolWorkers(prev)

	// Three morsels: the first entirely below the threshold (so the
	// zone map prunes it and the cost gate reports path=zonemap), the
	// other two qualifying (so the surviving scan fans out over more
	// than one morsel and records morsel spans) except for every other
	// row of the last morsel's first zone, the one zone whose rows the
	// kernel has to compare.
	n := 3 * monet.MorselSize
	values := make([]float64, n)
	for i := range values {
		if i < monet.MorselSize || i < 2*monet.MorselSize+monet.ZoneSize && i >= 2*monet.MorselSize && i%2 == 0 {
			values[i] = 100
		} else {
			values[i] = 200
		}
	}
	e := bigFeatureEngine(t, values)

	const src = "SELECT SEGMENTS FROM race WHERE FEATURE('speed') > 150"
	res, root, err := e.RunTraced(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("traced query returned no segments")
	}

	// Conceptual level: the root span.
	if root.Name() != "coql.query" {
		t.Fatalf("root span = %q, want coql.query", root.Name())
	}
	if root.TraceID() == "" {
		t.Fatal("root span has no trace ID")
	}
	if root.Attr("level") != "conceptual" {
		t.Fatalf("root level = %q", root.Attr("level"))
	}
	if root.Attr("query") != src {
		t.Fatalf("root query attr = %q", root.Attr("query"))
	}
	if !strings.Contains(root.Attr("resources"), "rows_scanned=") {
		t.Fatalf("root resources attr = %q", root.Attr("resources"))
	}

	// All three levels must appear in the tree.
	levels := levelsIn(root)
	for _, want := range []string{"conceptual", "logical", "physical"} {
		if !levels[want] {
			t.Fatalf("span tree missing level %q (have %v)\n%s", want, levels, root.Render())
		}
	}

	// Logical level: the condition evaluation and the feature leaf.
	if got := collectSpans(root, "coql.eval"); len(got) != 1 || got[0].Attr("level") != "logical" {
		t.Fatalf("coql.eval spans = %v\n%s", got, root.Render())
	}
	leaves := collectSpans(root, "eval:feature")
	if len(leaves) != 1 {
		t.Fatalf("eval:feature spans = %d\n%s", len(leaves), root.Render())
	}

	// Physical level: the kernel select must nest under the feature
	// leaf and carry the PR 5 cost-gate decision.
	sels := collectSpans(leaves[0], "monet.select")
	if len(sels) != 1 {
		t.Fatalf("monet.select spans under eval:feature = %d\n%s", len(sels), root.Render())
	}
	sel := sels[0]
	if sel.Attr("level") != "physical" {
		t.Fatalf("monet.select level = %q", sel.Attr("level"))
	}
	access := sel.Attr("access")
	if !strings.Contains(access, "path=zonemap") || !strings.Contains(access, "pruned=1") {
		t.Fatalf("monet.select access = %q, want zone-map path with one pruned morsel", access)
	}

	// Morsel spans: queue-wait and run time attribution per morsel.
	morsels := collectSpans(sel, "monet.morsel")
	if len(morsels) == 0 {
		t.Fatalf("no monet.morsel spans under monet.select\n%s", root.Render())
	}
	for _, m := range morsels {
		if m.Attr("queue_wait") == "" || m.Attr("run") == "" {
			t.Fatalf("morsel span missing queue_wait/run attrs: %v", m.Attrs())
		}
	}

	// Shared per-trace resource attribution.
	stat := root.Resources().Stat()
	if stat.RowsScanned == 0 || stat.RowsReturned == 0 || stat.Morsels == 0 {
		t.Fatalf("resource stat not attributed: %+v", stat)
	}
	// Zone map pruned one of three morsels and took all zones but one
	// of the other two without a compare: only that zone's rows were
	// compared.
	if want := int64(monet.ZoneSize); stat.RowsScanned != want {
		t.Fatalf("rows scanned = %d, want %d", stat.RowsScanned, want)
	}

	// The completed trace is retained in the default ring for
	// TRACEDUMP, keyed by the root's trace ID.
	tr, ok := obs.DefaultTraces.Get(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not in DefaultTraces", root.TraceID())
	}
	if tr.Query != src || tr.Root == nil || tr.Root.TraceID() != root.TraceID() {
		t.Fatalf("ring trace = %+v", tr)
	}

	// The same tree must export as Chrome trace-event JSON, including
	// the physical-level events.
	out, err := obs.ChromeTraceJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"coql.query"`, `"monet.select"`, `"monet.morsel"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("Chrome export missing %s", want)
		}
	}
}
