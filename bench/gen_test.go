package main

import (
	"reflect"
	"strings"
	"testing"

	"cobra/internal/query"
)

var generators = map[string]generator{
	"adhoc_paper": adhocPaper,
	"kernel_scan": kernelScan,
	"live_reader": liveReader,
}

func draw(s *stmtStream, n int) []stmt {
	out := make([]stmt, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// Same seed, same statement stream; another seed, another stream.
func TestSameSeedSameStatements(t *testing.T) {
	for name, g := range generators {
		a := draw(newStream(7, 0, g), 2000)
		b := draw(newStream(7, 0, g), 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams of seed 7 differ", name)
		}
		if c := draw(newStream(8, 0, g), 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
		if c := draw(newStream(7, 1, g), 2000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: connections 0 and 1 send the same stream", name)
		}
	}
	if a, b := standingQueries(7, 1000, 10), standingQueries(7, 1000, 10); !reflect.DeepEqual(a, b) {
		t.Error("standing queries of seed 7 differ between calls")
	}
}

// Every generated COQL statement parses, and statements meant to miss
// the result cache never share a canonical form — across the load
// connections, the warm-up and the ladder. On kernel_scan that
// is every statement: the cache must read zero hits there.
func TestFreshStatementsNeverRepeat(t *testing.T) {
	for name, g := range generators {
		seen := map[string]bool{}
		streams := []*stmtStream{newStream(3, 0, g), newStream(3, 1, g), newStream(3, 2, g), newStream(3, 3, g)}
		for _, s := range streams {
			for _, st := range draw(s, 5000) {
				if strings.HasPrefix(st.line, "MIL ") {
					if seen[st.line] {
						t.Fatalf("%s: MIL statement repeats: %s", name, st.line)
					}
					seen[st.line] = true
					continue
				}
				q, err := query.Parse(st.line)
				if err != nil {
					t.Fatalf("%s: %s: %v", name, st.line, err)
				}
				fresh := st.class == "miss" || st.class == "feature" || name == "kernel_scan"
				if key := q.Canonical(); fresh && seen[key] {
					t.Fatalf("%s: fresh statement repeats: %s", name, st.line)
				} else if fresh {
					seen[key] = true
				}
			}
		}
	}
}

func TestMixes(t *testing.T) {
	count := func(g generator) map[string]int {
		c := map[string]int{}
		for _, s := range draw(newStream(1, 0, g), 20000) {
			c[s.class]++
		}
		return c
	}
	near := func(what string, got, want int) {
		t.Helper()
		if got < want*9/10 || got > want*11/10 {
			t.Errorf("%s: %d of 20000, want about %d", what, got, want)
		}
	}
	paper := count(adhocPaper)
	near("adhoc_paper hit", paper["hit"], 10000)
	near("adhoc_paper miss", paper["miss"], 10000)
	scan := count(kernelScan)
	near("kernel_scan feature", scan["feature"], 12000)
	near("kernel_scan mil", scan["mil"], 6000)
	near("kernel_scan event", scan["event"], 2000)
	if len(paperPool) != 18 {
		t.Errorf("paper pool has %d statements, want 18", len(paperPool))
	}
}

func TestStandingQueries(t *testing.T) {
	for _, c := range []struct{ n, copies, classes int }{{1000, 10, 100}, {20, 1, 20}} {
		qs := standingQueries(1, c.n, c.copies)
		if len(qs) != c.n {
			t.Fatalf("%d standing queries, want %d", len(qs), c.n)
		}
		classes := map[string]bool{}
		for _, src := range qs {
			q, err := query.Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if q.Video != liveVideo {
				t.Fatalf("%s: video %q", src, q.Video)
			}
			classes[q.Canonical()] = true
		}
		if len(classes) != c.classes {
			t.Errorf("n=%d: %d canonical classes, want %d", c.n, len(classes), c.classes)
		}
	}
}
