package qcache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cobra/internal/monet"
)

// wire frames result lines as the complete response the cache stores.
func wire(lines ...string) []byte {
	resp := fmt.Appendf(nil, "OK %d\n", len(lines))
	for _, l := range lines {
		resp = append(append(resp, l...), '\n')
	}
	return append(resp, "END\n"...)
}

// body splits a stored response back into its result lines, checking
// the framing on the way.
func body(t *testing.T, resp []byte) []string {
	t.Helper()
	s := string(resp)
	if !strings.HasPrefix(s, "OK ") || !strings.HasSuffix(s, "\nEND\n") {
		t.Fatalf("response %q is not OK ... END framed", s)
	}
	lines := strings.Split(strings.TrimSuffix(s, "\nEND\n"), "\n")[1:]
	if want := fmt.Sprintf("OK %d", len(lines)); !strings.HasPrefix(s, want+"\n") {
		t.Fatalf("response %q: header does not count its %d lines", s, len(lines))
	}
	return lines
}

func mustLines(t *testing.T, c *Cache, key, fp string, lines []string) (got []string, hit bool) {
	t.Helper()
	resp, hit, err := c.Do(key, fp, func() ([]byte, error) { return wire(lines...), nil })
	if err != nil {
		t.Fatal(err)
	}
	return body(t, resp), hit
}

func TestMissThenHit(t *testing.T) {
	c := New(1 << 20)
	got, hit := mustLines(t, c, "q1", "1", []string{"a", "b"})
	if hit || len(got) != 2 {
		t.Fatalf("first Do = %v hit=%v", got, hit)
	}
	execs := 0
	resp, hit, err := c.Do("q1", "1", func() ([]byte, error) { execs++; return nil, nil })
	if err != nil || !hit || execs != 0 || len(body(t, resp)) != 2 {
		t.Fatalf("second Do = %q hit=%v execs=%d err=%v", resp, hit, execs, err)
	}
	// A hit hands back the stored response byte for byte.
	if string(resp) != "OK 2\na\nb\nEND\n" {
		t.Fatalf("hit served %q", resp)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEpochInvalidation(t *testing.T) {
	c := New(1 << 20)
	mustLines(t, c, "q1", "1", []string{"old"})
	got, hit := mustLines(t, c, "q1", "2", []string{"new"})
	if hit || got[0] != "new" {
		t.Fatalf("stale fingerprint served: %v hit=%v", got, hit)
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// The fresh entry serves under the new fingerprint...
	if _, hit := mustLines(t, c, "q1", "2", nil); !hit {
		t.Fatal("fresh entry not served")
	}
	// ...and never again under the old one (epochs only advance).
	if _, ok := c.Lookup("q1", "1"); ok {
		t.Fatal("old fingerprint still resident")
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, _, err := c.Do("q", "1", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	execs := 0
	_, hit, err := c.Do("q", "1", func() ([]byte, error) { execs++; return wire("ok"), nil })
	if err != nil || hit || execs != 1 {
		t.Fatalf("error was cached: hit=%v execs=%d err=%v", hit, execs, err)
	}
}

func TestEmptyResultCached(t *testing.T) {
	c := New(1 << 20)
	mustLines(t, c, "q", "1", nil)
	execs := 0
	_, hit, err := c.Do("q", "1", func() ([]byte, error) { execs++; return nil, nil })
	if err != nil || !hit || execs != 0 {
		t.Fatalf("empty result not cached: hit=%v execs=%d", hit, execs)
	}
}

func TestLRUByteBudgetEviction(t *testing.T) {
	// Budget for roughly three small entries.
	c := New(3 * 400)
	line := make([]byte, 128)
	for i := 0; i < 6; i++ {
		mustLines(t, c, fmt.Sprintf("q%d", i), "1", []string{string(line)})
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under pressure: %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("over budget: %+v", st)
	}
	// The most recent entry survives, the oldest is gone.
	if _, ok := c.Lookup("q5", "1"); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := c.Lookup("q0", "1"); ok {
		t.Fatal("oldest entry survived a full wrap")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	// Room for three ~275-byte entries; a fourth forces one eviction.
	c := New(900)
	line := make([]byte, 128)
	for i := 0; i < 3; i++ {
		mustLines(t, c, fmt.Sprintf("q%d", i), "1", []string{string(line)})
	}
	// Touch q0 so q1 becomes the eviction victim.
	if _, hit := mustLines(t, c, "q0", "1", nil); !hit {
		t.Fatal("warm entry missed")
	}
	mustLines(t, c, "q3", "1", []string{string(line)})
	if _, ok := c.Lookup("q0", "1"); !ok {
		t.Fatal("recently touched entry evicted")
	}
	if _, ok := c.Lookup("q1", "1"); ok {
		t.Fatal("LRU victim survived")
	}
}

func TestOversizeResultNotStored(t *testing.T) {
	c := New(256)
	big := make([]byte, 1024)
	mustLines(t, c, "huge", "1", []string{string(big)})
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize entry stored: %+v", st)
	}
}

func TestSingleFlightCollapses(t *testing.T) {
	c := New(1 << 20)
	var execs atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([][]byte, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, hit, err := c.Do("q", "1", func() ([]byte, error) {
				execs.Add(1)
				<-gate
				return wire("r"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], hits[i] = resp, hit
		}(i)
	}
	// Let the herd pile up on the flight, then release it. A short
	// sleep-free sync: wait until one exec started.
	for c.Stats().Misses == 0 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()
	if got := execs.Load(); got != 1 {
		t.Fatalf("exec ran %d times under single-flight", got)
	}
	for i := range results {
		if got := body(t, results[i]); len(got) != 1 || got[0] != "r" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.SingleflightWaits+st.Hits != n-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlightPanicReleasesWaiters(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	release := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do("q", "1", func() ([]byte, error) {
			close(started)
			<-release
			panic("exec exploded")
		})
	}()
	<-started
	go func() {
		_, _, err := c.Do("q", "1", func() ([]byte, error) { return wire("fresh"), nil })
		waited <- err
	}()
	close(release)
	// The waiter must not hang: the panicking flight closes done on the
	// way out, handing waiters an "aborted" error. A waiter arriving
	// after the flight was torn down re-executes instead; both paths
	// terminate, neither fabricates an empty result as a success from
	// a shared flight.
	<-waited
}

func TestFingerprintSnapshotsStore(t *testing.T) {
	store := monet.NewStore()
	b := monet.NewBATCap(monet.Void, monet.IntT, 1)
	b.MustInsert(monet.VoidValue(), monet.NewInt(1))
	if err := store.Put("a", b); err != nil {
		t.Fatal(err)
	}
	fp1 := Fingerprint(store, []string{"a", "b"})
	fp2 := Fingerprint(store, []string{"a", "b"})
	if fp1 != fp2 {
		t.Fatalf("stable store, unstable fingerprint: %q vs %q", fp1, fp2)
	}
	if err := store.Append("a", monet.VoidValue(), monet.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	if fp3 := Fingerprint(store, []string{"a", "b"}); fp3 == fp1 {
		t.Fatal("append did not move the fingerprint")
	}
	// The max-epoch trap the fingerprint exists to avoid: bumping a
	// low-epoch dependency must change the vector even when another
	// dependency holds a larger epoch.
	for i := 0; i < 5; i++ {
		if err := store.Append("a", monet.VoidValue(), monet.NewInt(3)); err != nil {
			t.Fatal(err)
		}
	}
	c := monet.NewBATCap(monet.Void, monet.IntT, 1)
	c.MustInsert(monet.VoidValue(), monet.NewInt(1))
	if err := store.Put("b", c); err != nil {
		t.Fatal(err)
	}
	before := Fingerprint(store, []string{"a", "b"})
	if err := store.Append("b", monet.VoidValue(), monet.NewInt(2)); err != nil {
		t.Fatal(err)
	}
	if after := Fingerprint(store, []string{"a", "b"}); after == before {
		t.Fatal("low-epoch dependency bump lost in the fingerprint")
	}
}

func TestFlush(t *testing.T) {
	c := New(1 << 20)
	mustLines(t, c, "q", "1", []string{"x"})
	c.Flush()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Flush left %+v", st)
	}
}

// TestNeverHitCap pins the count cap on entries no lookup has hit yet:
// an entry hit once outlives any number of newer one-shot entries, a
// never-hit entry is evicted once maxFresh newer ones arrived, and the
// byte budget holds throughout.
func TestNeverHitCap(t *testing.T) {
	c := New(1 << 30)
	mustLines(t, c, "hot", "1", []string{"h"})
	if _, hit := mustLines(t, c, "hot", "1", nil); !hit {
		t.Fatal("second identical query missed")
	}
	mustLines(t, c, "cold", "1", []string{"c"})
	for i := 0; i < maxFresh-1; i++ {
		mustLines(t, c, fmt.Sprintf("once%d", i), "1", []string{"x"})
	}
	if _, ok := c.Lookup("cold", "1"); !ok {
		t.Fatalf("never-hit entry gone after %d newer ones, cap %d", maxFresh-1, maxFresh)
	}
	mustLines(t, c, "once-last", "1", []string{"x"})
	if _, ok := c.Lookup("cold", "1"); ok {
		t.Fatalf("never-hit entry survived %d newer ones, cap %d", maxFresh, maxFresh)
	}
	for i := 0; i < 2*maxFresh; i++ {
		mustLines(t, c, fmt.Sprintf("more%d", i), "1", []string{"x"})
	}
	if _, ok := c.Lookup("hot", "1"); !ok {
		t.Fatalf("entry hit once evicted by %d one-shot entries", 3*maxFresh)
	}
	st := c.Stats()
	if st.Entries != maxFresh+1 || st.Evictions != 2*maxFresh+1 {
		t.Fatalf("stats = %+v, want %d entries and %d evictions", st, maxFresh+1, 2*maxFresh+1)
	}
}

// TestNeverHitCapKeepsByteBudget: with hit entries filling the byte
// budget, a new entry evicts the least recent hit one rather than
// itself, so its second identical query still hits, and the budget
// holds.
func TestNeverHitCapKeepsByteBudget(t *testing.T) {
	c := New(900) // room for three ~275-byte entries
	line := string(make([]byte, 128))
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("hot%d", i)
		mustLines(t, c, key, "1", []string{line})
		if _, hit := mustLines(t, c, key, "1", nil); !hit {
			t.Fatalf("%s missed on its second query", key)
		}
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("new%d", i)
		mustLines(t, c, key, "1", []string{line})
		if _, hit := mustLines(t, c, key, "1", nil); !hit {
			t.Fatalf("%s missed on its second query", key)
		}
		if st := c.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("over budget: %+v", st)
		}
	}
	if _, ok := c.Lookup("hot0", "1"); ok {
		t.Fatal("least recent hit entry survived five newer hit ones")
	}
}

// TestChargeCountsBodyLines pins the byte charge of a stored response:
// key, fingerprint and entryOverhead, plus each body line's length and
// 16 bytes — the framing itself is free.
func TestChargeCountsBodyLines(t *testing.T) {
	for _, lines := range [][]string{nil, {""}, {"a"}, {"a", "bc"}, {"0.0 1.0 1.000 -", "12.5 13.5 0.250 driver=SCH", string(make([]byte, 300))}} {
		want := int64(len("key")+len("fp")) + entryOverhead
		for _, l := range lines {
			want += int64(len(l)) + 16
		}
		c := New(1 << 20)
		mustLines(t, c, "key", "fp", lines)
		if st := c.Stats(); st.Bytes != want {
			t.Fatalf("qcache.bytes = %d after storing %q, want %d", st.Bytes, lines, want)
		}
	}
}
