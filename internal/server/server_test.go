package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"cobra/internal/cobra"
	"cobra/internal/hmm"
	"cobra/internal/monet"
	"cobra/internal/obs"
)

func testServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	cat.PutVideo(cobra.Video{Name: "v", Duration: 100, FPS: 10})
	cat.PutEvents("v", []cobra.Event{
		{Type: "highlight", Interval: cobra.Interval{Start: 10, End: 20}, Confidence: 0.9,
			Attrs: map[string]string{"driver": "RALF"}},
	})
	pre := cobra.NewPreprocessor(cat)

	pool := hmm.NewEnginePool(2)
	m := hmm.NewModel("Service", 2, 2)
	if err := pool.Register(m); err != nil {
		t.Fatal(err)
	}
	srv := New(pre, pool)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestPing(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do("PING")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestCOQLOverWire(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], "driver=RALF") {
		t.Fatalf("out = %v", out)
	}
	// Explicit COQL prefix works too.
	out, err = cl.Do(`COQL SELECT SEGMENTS FROM v WHERE EVENT('highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
}

// TestOverlongRequestLine: a line just under the 1 MiB cap is served;
// one that fills the cap without a newline is answered with ERR before
// the connection closes, instead of a silent hang-up.
func TestOverlongRequestLine(t *testing.T) {
	srv, _ := testServer(t)
	srv.mu.Lock()
	addr := srv.listener.Addr().String()
	srv.mu.Unlock()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	long := "PING" + strings.Repeat(" ", 1<<20-6) // 1 MiB - 2 bytes before the newline
	if got := rawDo(t, conn, r, long); got != "OK 0\nEND\n" {
		t.Fatalf("line of %d bytes answered %q", len(long), got)
	}
	if _, err := conn.Write(bytes.Repeat([]byte{'a'}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != "ERR request line exceeds 1 MiB\n" {
		t.Fatalf("over-long line answered %q, then the connection closed", rest)
	}
}

func TestCOQLError(t *testing.T) {
	_, cl := testServer(t)
	if _, err := cl.Do(`SELECT NONSENSE`); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestMILOverWire(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do(`MIL VAR b := new(void,int); b.insert(nil, 41); RETURN b.sum + 1;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "42" {
		t.Fatalf("out = %v", out)
	}
}

func TestMILReachesCatalogBATs(t *testing.T) {
	_, cl := testServer(t)
	// The catalog's event columns are plain BATs visible to MIL.
	out, err := cl.Do(`MIL RETURN bat("cobra/event/v/type").count;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "1" {
		t.Fatalf("out = %v", out)
	}
}

func TestHMMOverWire(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do("HMM EVAL Service 0,1,0,1")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	out, err = cl.Do("HMM CLASSIFY 0,1,0")
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "Service" {
		t.Fatalf("classify = %v", out)
	}
	if _, err := cl.Do("HMM EVAL Nope 0,1"); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := cl.Do("HMM EVAL Service x,y"); err == nil {
		t.Fatal("bad observations accepted")
	}
}

func TestListVideos(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do("LIST VIDEOS")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "v" {
		t.Fatalf("out = %v", out)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, cl := testServer(t)
	if _, err := cl.Do("FROBNICATE"); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := testServer(t)
	addrStr := srv.listener.Addr().String()
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			cl, err := Dial(addrStr)
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 10; j++ {
				if _, err := cl.Do("PING"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatsOverWire(t *testing.T) {
	_, cl := testServer(t)
	if _, err := cl.Do(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Do("STATS")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out, "\n")
	for _, want := range []string{
		"counter coql.queries ",
		"counter server.requests ",
		"hist coql.query.latency count=",
		"p95_ns=",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("STATS missing %q:\n%s", want, joined)
		}
	}
	// The query counter must be at least the one query this test ran.
	for _, l := range out {
		if strings.HasPrefix(l, "counter coql.queries ") {
			if strings.TrimPrefix(l, "counter coql.queries ") == "0" {
				t.Errorf("coql.queries = 0 after a query: %s", l)
			}
		}
	}
}

func TestTraceOverWire(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do(`TRACE SELECT SEGMENTS FROM v WHERE EVENT('highlight')`)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out, "\n")
	// The span tree must cover all three levels with non-zero timings.
	for _, want := range []string{
		"# 1 segments",
		"coql.query ",
		"level=conceptual",
		"coql.eval ",
		"level=logical",
		"monet.scan ",
		"level=physical",
		"rows=1",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("TRACE missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, " 0ns") {
		t.Errorf("TRACE has a zero timing:\n%s", joined)
	}
	if _, err := cl.Do("TRACE"); err == nil {
		t.Fatal("bare TRACE accepted")
	}
	if _, err := cl.Do("TRACE SELECT NONSENSE"); err == nil {
		t.Fatal("bad traced query accepted")
	}
}

func TestTraceDumpOverWire(t *testing.T) {
	srv, cl := testServer(t)
	if _, err := cl.Do(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`); err != nil {
		t.Fatal(err)
	}

	// Bare TRACEDUMP: a newest-first listing. The ring is process-wide,
	// so pick the newest entry for the query this test just ran.
	out, err := cl.Do("TRACEDUMP")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || !strings.HasPrefix(out[0], "# ") {
		t.Fatalf("TRACEDUMP header = %v", out)
	}
	var id string
	for _, l := range out[1:] {
		if strings.Contains(l, "EVENT('highlight')") {
			id = strings.Fields(l)[0]
			break
		}
	}
	if !strings.HasPrefix(id, "t") {
		t.Fatalf("no trace ID for the query in TRACEDUMP listing:\n%s", strings.Join(out, "\n"))
	}

	// TRACEDUMP <id>: resource attribution plus the full span tree.
	out, err = cl.Do("TRACEDUMP " + id)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out, "\n")
	for _, want := range []string{
		"# trace " + id,
		"# query SELECT SEGMENTS",
		"rows_scanned=",
		"coql.query ",
		"level=conceptual",
		"level=logical",
		"level=physical",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("TRACEDUMP %s missing %q:\n%s", id, want, joined)
		}
	}

	// TRACEDUMP <id> CHROME: one line of trace-event JSON.
	out, err = cl.Do("TRACEDUMP " + id + " CHROME")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !strings.Contains(out[0], `"traceEvents"`) {
		t.Fatalf("TRACEDUMP CHROME = %v", out)
	}

	// Unknown IDs are an error, not an empty dump.
	if _, err := cl.Do("TRACEDUMP t000000f00d"); err == nil {
		t.Fatal("unknown trace ID accepted")
	}

	// A MIL request's kernel work nests under its mil.exec span: the
	// fused chain records a monet.select span with its fused= verdict,
	// the select over a bat() VAR one with its access= path.
	vals := make([]float64, 40000)
	for i := range vals {
		vals[i] = float64(i) / float64(len(vals))
	}
	srv.cat.PutFeature(cobra.Feature{Video: "v", Name: "dust", SampleRate: 10, Values: vals})
	for stmt, want := range map[string]string{
		`bat("cobra/feature/v/dust").select(0.1, 0.2).count;`:           `fused="fused=select→count`,
		`VAR d := bat("cobra/feature/v/dust"); d.select(0.1, 0.2).max;`: `access="path=zonemap`,
	} {
		if _, err := cl.Do("MIL " + stmt); err != nil {
			t.Fatal(err)
		}
		out, err := cl.Do("TRACEDUMP")
		if err != nil {
			t.Fatal(err)
		}
		id = ""
		for _, l := range out[1:] {
			if strings.Contains(l, stmt) {
				id = strings.Fields(l)[0]
				break
			}
		}
		if id == "" {
			t.Fatalf("no trace for %s in TRACEDUMP listing:\n%s", stmt, strings.Join(out, "\n"))
		}
		if out, err = cl.Do("TRACEDUMP " + id); err != nil {
			t.Fatal(err)
		}
		depth := -1
		for _, l := range out {
			indent := len(l) - len(strings.TrimLeft(l, " "))
			switch {
			case strings.HasPrefix(strings.TrimSpace(l), "mil.exec "):
				depth = indent
			case depth >= 0 && indent > depth && strings.HasPrefix(strings.TrimSpace(l), "monet.select ") && strings.Contains(l, want):
				depth = -2 // found under mil.exec
			}
		}
		if depth != -2 {
			t.Errorf("TRACEDUMP %s has no monet.select span with %q under mil.exec:\n%s", id, want, strings.Join(out, "\n"))
		}
	}
}

func TestSlowlogOverWire(t *testing.T) {
	_, cl := testServer(t)
	old := obs.DefaultSlowLog.Threshold()
	obs.DefaultSlowLog.SetThreshold(time.Nanosecond)
	defer obs.DefaultSlowLog.SetThreshold(old)
	if _, err := cl.Do(`SELECT SEGMENTS FROM v WHERE EVENT('highlight')`); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Do("SLOWLOG")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out, "\n")
	if !strings.HasPrefix(out[0], "# threshold ") {
		t.Fatalf("SLOWLOG header = %q", out[0])
	}
	if !strings.Contains(joined, "EVENT('highlight')") {
		t.Errorf("SLOWLOG missing the slow query:\n%s", joined)
	}
}

func TestCloseSentinelAndDrain(t *testing.T) {
	srv, cl := testServer(t)
	// A live client is connected; Close must drain it and return.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain in-flight connections")
	}
	if err := srv.Close(); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("second Close = %v, want ErrServerClosed", err)
	}
	// The drained connection no longer serves requests.
	if _, err := cl.Do("PING"); err == nil {
		t.Fatal("request succeeded after Close")
	}
	// Listen after Close is refused.
	if _, err := srv.Listen("127.0.0.1:0"); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Listen after Close = %v, want ErrServerClosed", err)
	}
}

func TestExportOverWire(t *testing.T) {
	_, cl := testServer(t)
	out, err := cl.Do("EXPORT v")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(out, "\n")
	if !strings.Contains(joined, "<Mpeg7>") || !strings.Contains(joined, `type="highlight"`) {
		t.Fatalf("export = %s", joined)
	}
	if _, err := cl.Do("EXPORT nope"); err == nil {
		t.Fatal("unknown video accepted")
	}
}

func TestCheckOverWire(t *testing.T) {
	_, cl := testServer(t)
	// A clean program answers "program OK".
	out, err := cl.Do(`CHECK VAR b := new(void,int); b.insert(nil, 41); RETURN b.sum;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "program OK" {
		t.Fatalf("out = %v", out)
	}
	// An unbound variable is diagnosed with its position — and the
	// statement is NOT executed.
	out, err = cl.Do(`CHECK RETURN nosuchvar;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || !strings.Contains(out[0], "unbound") {
		t.Fatalf("out = %v", out)
	}
	// Catalog BATs resolve with their true types: a string uselect over
	// the dbl start column is a type error.
	out, err = cl.Do(`CHECK RETURN bat("cobra/event/v/start").uselect("x");`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || !strings.Contains(strings.Join(out, "\n"), "error") {
		t.Fatalf("out = %v", out)
	}
	// Parse errors come back as protocol errors.
	if _, err := cl.Do(`CHECK VAR := ;`); err == nil {
		t.Fatal("unparseable program accepted")
	}
}

func TestCheckSeesSessionState(t *testing.T) {
	_, cl := testServer(t)
	// Globals and procs created by earlier MIL commands are in scope
	// for CHECK on the same server.
	if _, err := cl.Do(`MIL sessiong := 7; PROC twice(int x) : int := { RETURN x + x; } RETURN sessiong;`); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Do(`CHECK RETURN twice(sessiong);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != "program OK" {
		t.Fatalf("out = %v", out)
	}
	// The extension operations registered with the HMM pool carry
	// signatures: wrong argument types are diagnosed.
	out, err = cl.Do(`CHECK RETURN hmmonecall(1, 2);`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || out[0] == "program OK" {
		t.Fatalf("out = %v", out)
	}
}

func TestExplainOverWire(t *testing.T) {
	srv, cl := testServer(t)
	vals := make([]float64, 40000)
	srv.cat.PutFeature(cobra.Feature{Video: "v", Name: "dust", SampleRate: 10, Values: vals})
	stmt := `SELECT SEGMENTS FROM v WHERE EVENT('highlight', DRIVER='Ralf') AND NOT FEATURE('dust') > 0.5`
	index := func() []string {
		out, err := cl.Do(`INDEXINFO cobra/feature/v/dust`)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := index()
	var out []string
	for i := 0; i < 2; i++ {
		var err error
		if out, err = cl.Do(`EXPLAIN ` + stmt); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		`select segments from v where (event("highlight", driver="ralf")) and (not (feature("dust") > 0.5))`,
		`and`,
		`  event("highlight", driver="ralf")`,
		`  not`,
		`    feature("dust") > 0.5  # access path=zonemap rows=40000 matched=0`,
	}
	if strings.Join(out, "\n") != strings.Join(want, "\n") {
		t.Fatalf("EXPLAIN =\n%s\nwant\n%s", strings.Join(out, "\n"), strings.Join(want, "\n"))
	}
	// Planning built no index and counted no select.
	if after := index(); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("EXPLAIN moved the index state:\n%v\n%v", before, after)
	}
	out, err := cl.Do(`EXPLAIN SELECT SEGMENTS FROM v WHERE FEATURE('rpm') < 3`)
	if err != nil || len(out) != 2 || out[1] != `feature("rpm") < 3  # access not materialized` {
		t.Fatalf("EXPLAIN of an unextracted feature = %v, %v", out, err)
	}
	// An unknown video fails as execution does.
	_, explainErr := cl.Do(`EXPLAIN SELECT SEGMENTS FROM nosuch`)
	_, runErr := cl.Do(`SELECT SEGMENTS FROM nosuch`)
	if explainErr == nil || runErr == nil || explainErr.Error() != runErr.Error() {
		t.Fatalf("EXPLAIN err = %v, COQL err = %v", explainErr, runErr)
	}
	if _, err := cl.Do(`EXPLAIN`); err == nil {
		t.Fatal("bare EXPLAIN accepted")
	}
	if _, err := cl.Do(`EXPLAIN SELECT NONSENSE`); err == nil || !strings.Contains(err.Error(), "query: ") {
		t.Fatalf("unparseable COQL: err = %v", err)
	}
}

func TestExplainAnalyzeOverWire(t *testing.T) {
	srv, cl := testServer(t)
	vals := make([]float64, 40000)
	for i := 5000; i < 9000; i++ {
		vals[i] = 0.9
	}
	srv.cat.PutFeature(cobra.Feature{Video: "v", Name: "dust", SampleRate: 10, Values: vals})
	out, err := cl.Do(`EXPLAIN ANALYZE SELECT SEGMENTS FROM v WHERE FEATURE('dust') > 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	// The tree as it stood before execution, then the run and its trace.
	if len(out) < 4 ||
		out[0] != `select segments from v where feature("dust") > 0.5` ||
		out[1] != `feature("dust") > 0.5  # access path=zonemap rows=40000 matched=0` ||
		out[2] != "# executed: 1 segments" ||
		!strings.HasPrefix(out[3], "coql.query") {
		t.Fatalf("EXPLAIN ANALYZE =\n%s", strings.Join(out, "\n"))
	}
	// The span tree carries the access path and fused verdict that ran.
	if body := strings.Join(out, "\n"); !strings.Contains(body, "monet.select") || !strings.Contains(body, "fused=") {
		t.Fatalf("EXPLAIN ANALYZE trace lacks the kernel select:\n%s", body)
	}
	if _, err := cl.Do(`EXPLAIN ANALYZE`); err == nil {
		t.Fatal("bare EXPLAIN ANALYZE accepted")
	}
	if _, err := cl.Do(`EXPLAIN ANALYZE SELECT SEGMENTS FROM nosuch`); err == nil {
		t.Fatal("EXPLAIN ANALYZE of an unknown video accepted")
	}
}

func TestIndexInfoOverWire(t *testing.T) {
	srv, cl := testServer(t)
	vals := make([]float64, 40000)
	srv.cat.PutFeature(cobra.Feature{Video: "v", Name: "dust", SampleRate: 10, Values: vals})
	out, err := cl.Do(`INDEXINFO cobra/feature/v/dust`)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Join(out, "\n")
	for _, want := range []string{"name cobra/feature/v/dust", "rows 40000", "zonemap ", "dict "} {
		if !strings.Contains(body, want) {
			t.Errorf("INDEXINFO output missing %q:\n%s", want, body)
		}
	}
	if _, err := cl.Do(`INDEXINFO`); err == nil {
		t.Fatal("bare INDEXINFO accepted")
	}
	if _, err := cl.Do(`INDEXINFO no/such/bat`); err == nil {
		t.Fatal("missing BAT accepted")
	}
}
