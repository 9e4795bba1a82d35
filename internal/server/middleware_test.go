package server

import (
	"errors"
	"strings"
	"testing"

	"cobra/internal/admit"
	"cobra/internal/cobra"
	"cobra/internal/monet"
	"cobra/internal/obs"
	"cobra/internal/qcache"
)

// servingFixture builds a server with the full serving pipeline
// attached — result cache, and optionally admission — plus a client
// and the live catalog for mutating mid-test.
func servingFixture(t *testing.T, adm *admit.Controller) (*Server, *Client, *cobra.Catalog) {
	t.Helper()
	store := monet.NewStore()
	cat := cobra.NewCatalog(store)
	cat.PutVideo(cobra.Video{Name: "v", Duration: 100, FPS: 10})
	cat.PutEvents("v", []cobra.Event{
		{Type: "highlight", Interval: cobra.Interval{Start: 10, End: 20}, Confidence: 0.9},
	})
	pre := cobra.NewPreprocessor(cat)
	srv := New(pre, nil)
	srv.SetCache(qcache.New(1 << 20))
	if adm != nil {
		srv.SetAdmission(adm)
	}
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
	return srv, cl, cat
}

// cacheStat reads one counter out of a CACHESTATS response.
func cacheStat(t *testing.T, cl *Client, name string) string {
	t.Helper()
	lines, err := cl.Do("CACHESTATS")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if k, v, ok := strings.Cut(l, " "); ok && k == name {
			return v
		}
	}
	t.Fatalf("CACHESTATS has no %q in %v", name, lines)
	return ""
}

const cachedQuery = `SELECT SEGMENTS FROM v WHERE EVENT('highlight')`

func TestCacheMissThenHitOverWire(t *testing.T) {
	_, cl, _ := servingFixture(t, nil)
	first, err := cl.Do(cachedQuery)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cl.Do(cachedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("cached response differs:\n%v\n%v", first, second)
	}
	if got := cacheStat(t, cl, "qcache.hits"); got != "1" {
		t.Fatalf("hits = %s", got)
	}
	if got := cacheStat(t, cl, "qcache.misses"); got != "1" {
		t.Fatalf("misses = %s", got)
	}
	// Spelling variations share the canonical entry.
	if _, err := cl.Do(`COQL select   SEGMENTS from v where event('highlight')`); err != nil {
		t.Fatal(err)
	}
	if got := cacheStat(t, cl, "qcache.hits"); got != "2" {
		t.Fatalf("hits after respelling = %s", got)
	}
}

func TestCacheEpochInvalidationOverWire(t *testing.T) {
	_, cl, cat := servingFixture(t, nil)
	before, err := cl.Do(cachedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AppendEvents("v", []cobra.Event{
		{Type: "highlight", Interval: cobra.Interval{Start: 30, End: 40}, Confidence: 0.8},
	}); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Do(cachedQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("append not visible through the cache: %v -> %v", before, after)
	}
	if got := cacheStat(t, cl, "qcache.invalidations"); got != "1" {
		t.Fatalf("invalidations = %s", got)
	}
	// The recomputed result is itself cached again.
	if _, err := cl.Do(cachedQuery); err != nil {
		t.Fatal(err)
	}
	if got := cacheStat(t, cl, "qcache.hits"); got != "1" {
		t.Fatalf("hits = %s", got)
	}
}

func TestNoGatesVerbAndPhysicalAccessServed(t *testing.T) {
	_, cl, _ := servingFixture(t, nil)
	for _, line := range []string{"GATES", "GATES SET mil.enabled off"} {
		if _, err := cl.Do(line); err == nil || err.Error() != `server: unknown command "GATES"` {
			t.Fatalf("%s: err = %v", line, err)
		}
	}
	out, err := cl.Do("MIL RETURN 1 + 1;")
	if err != nil || len(out) != 1 || out[0] != "2" {
		t.Fatalf("MIL = %v, %v", out, err)
	}
	out, err = cl.Do("CHECK RETURN 1;")
	if err != nil || len(out) != 1 || out[0] != "program OK" {
		t.Fatalf("CHECK = %v, %v", out, err)
	}
}

func TestAdmissionShedsWithBusy(t *testing.T) {
	adm := admit.New(admit.Config{MaxInFlight: 1})
	_, cl, _ := servingFixture(t, adm)
	// Occupy the only slot out-of-band, then prove a heavy request is
	// shed with BUSY while light verbs keep answering.
	release, err := adm.Acquire("occupant")
	if err != nil {
		t.Fatal(err)
	}
	tracesBefore := len(obs.DefaultTraces.Recent())
	_, err = cl.Do(cachedQuery)
	if !errors.Is(err, admit.ErrBusy) {
		t.Fatalf("shed request err = %v, want BUSY", err)
	}
	// The shed request never reached the engine: no new trace, no pool
	// work, nothing cached. (It still counts as a cache miss — the
	// cache was consulted and had nothing — but the miss's execution
	// was shed downstream.)
	if got := len(obs.DefaultTraces.Recent()); got != tracesBefore {
		t.Fatalf("shed request produced a trace (%d -> %d)", tracesBefore, got)
	}
	if got := cacheStat(t, cl, "qcache.entries"); got != "0" {
		t.Fatalf("shed request stored a result: entries = %s", got)
	}
	if _, err := cl.Do("PING"); err != nil {
		t.Fatalf("light verb shed: %v", err)
	}
	release()
	// With the slot free the same query executes and caches...
	if _, err := cl.Do(cachedQuery); err != nil {
		t.Fatalf("post-release query failed: %v", err)
	}
	// ...and a cache hit is served even while the server is saturated
	// again: hits bypass admission entirely.
	release2, err := adm.Acquire("occupant")
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	if _, err := cl.Do(cachedQuery); err != nil {
		t.Fatalf("cache hit shed under load: %v", err)
	}
	if got := cacheStat(t, cl, "qcache.hits"); got != "1" {
		t.Fatalf("hits = %s", got)
	}
}

func TestBusyResponseNotCached(t *testing.T) {
	adm := admit.New(admit.Config{MaxInFlight: 1})
	_, cl, _ := servingFixture(t, adm)
	release, err := adm.Acquire("occupant")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(cachedQuery); !errors.Is(err, admit.ErrBusy) {
		t.Fatalf("err = %v, want BUSY", err)
	}
	release()
	// The BUSY answer must not have been stored as the query's result.
	out, err := cl.Do(cachedQuery)
	if err != nil {
		t.Fatalf("query after shed failed: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
}

func TestAuthTokenGatesHeavyVerbs(t *testing.T) {
	srv, cl, _ := servingFixture(t, nil)
	srv.SetAuthToken("sekret")
	if _, err := cl.Do(cachedQuery); err == nil || !strings.Contains(err.Error(), "authentication required") {
		t.Fatalf("unauthenticated heavy verb err = %v", err)
	}
	if _, err := cl.Do("PING"); err != nil {
		t.Fatalf("PING locked out: %v", err)
	}
	if _, err := cl.Do("AUTH team-a wrong"); err == nil {
		t.Fatal("bad credentials accepted")
	}
	out, err := cl.Do("AUTH team-a sekret")
	if err != nil || len(out) != 1 || out[0] != "authenticated team-a" {
		t.Fatalf("AUTH = %v, %v", out, err)
	}
	if _, err := cl.Do(cachedQuery); err != nil {
		t.Fatalf("authenticated query failed: %v", err)
	}
}

func TestServeInProcessUsesPipeline(t *testing.T) {
	srv, _, _ := servingFixture(t, nil)
	var b1, b2 strings.Builder
	srv.Serve(cachedQuery, &b1)
	srv.Serve(cachedQuery, &b2)
	if b1.String() != b2.String() {
		t.Fatalf("in-process serve unstable:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	st := srv.Cache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
