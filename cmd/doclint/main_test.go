package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLintObservability checks both table kinds against a tiny module:
// recorded names and wildcard span prefixes pass, a name nothing
// records is flagged, test files do not count, and tables of other
// kinds are ignored.
func TestLintObservability(t *testing.T) {
	root := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("code.go", `package x

var reqs = obs.C("x.requests")
var lat = reg.Histogram("x.latency")

func f(sp *obs.Span, name string) {
	sp.StartChild("x.eval")
	sp.StartChild("select:" + name)
	sp.AddChild("x.parse", start, d)
}
`)
	write("code_test.go", `package x

var only = obs.G("x.test_only")
`)
	write("doc.md", "| metric | meaning |\n"+
		"|---|---|\n"+
		"| `x.requests` / `x.latency` | ok |\n"+
		"| `x.test_only` | flagged: recorded only by a test |\n"+
		"\n"+
		"| span | level |\n"+
		"|---|---|\n"+
		"| `x.eval` | ok |\n"+
		"| `x.parse` | ok: recorded after the fact |\n"+
		"| `select:*` | ok: literal prefix of a concatenation |\n"+
		"| `select:` | flagged: a prefix is not a full name |\n"+
		"| `gone.eval` | flagged |\n"+
		"\n"+
		"| field | meaning |\n"+
		"|---|---|\n"+
		"| `not.a.metric` | ignored |\n")
	if got := lintObservability(root, filepath.Join(root, "doc.md")); got != 3 {
		t.Fatalf("lintObservability = %d mismatches, want 3", got)
	}
}
