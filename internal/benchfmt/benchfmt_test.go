package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func sample() *File {
	return &File{
		GOOS:       "linux",
		GOARCH:     "amd64",
		GOMAXPROCS: 4,
		Results: []Result{
			{Name: "BATJoin", Iterations: 100, NsPerOp: 1000, AllocsPerOp: 5, BytesPerOp: 640},
			{Name: "BATUselect", Iterations: 200, NsPerOp: 500, AllocsPerOp: 2, BytesPerOp: 128},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := sample()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GOMAXPROCS != 4 || len(got.Results) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	r, ok := got.Find("BATJoin")
	if !ok || r.NsPerOp != 1000 {
		t.Fatalf("Find(BATJoin) = %+v, %v", r, ok)
	}
	if _, ok := got.Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompare(t *testing.T) {
	base := sample()
	cur := &File{Results: []Result{
		{Name: "BATJoin", NsPerOp: 1240}, // +24%: within a 25% threshold
		{Name: "BATNew", NsPerOp: 1},     // new op: ignored
	}}
	deltas := Compare(base, cur, 0.25)
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v", deltas)
	}
	// Sorted by name: BATJoin then BATUselect.
	if deltas[0].Name != "BATJoin" || deltas[0].Regressed {
		t.Fatalf("BATJoin delta = %+v", deltas[0])
	}
	if deltas[1].Name != "BATUselect" || !deltas[1].Missing || !deltas[1].Regressed {
		t.Fatalf("missing op delta = %+v", deltas[1])
	}

	// A 26% slowdown breaches the 25% gate.
	cur = &File{Results: []Result{
		{Name: "BATJoin", NsPerOp: 1260},
		{Name: "BATUselect", NsPerOp: 500},
	}}
	deltas = Compare(base, cur, 0.25)
	if !deltas[0].Regressed {
		t.Fatalf("26%% slowdown not flagged: %+v", deltas[0])
	}
	if deltas[1].Regressed {
		t.Fatalf("unchanged op flagged: %+v", deltas[1])
	}
}

func TestCompareWidthChange(t *testing.T) {
	base := &File{GOMAXPROCS: 8, Results: []Result{
		{Name: "ParallelSelect1M", NsPerOp: 1000, Width: 4},
		{Name: "Select1M/w8", NsPerOp: 800, Width: 8},
	}}
	// Faster, but measured at a different pool width: the ratio would
	// compare incomparable runs, so the gate must fail the op.
	cur := &File{GOMAXPROCS: 8, Results: []Result{
		{Name: "ParallelSelect1M", NsPerOp: 600, Width: 8},
		{Name: "Select1M/w8", NsPerOp: 810, Width: 8},
	}}
	deltas := Compare(base, cur, 0.25)
	if !deltas[0].WidthChanged || !deltas[0].Regressed {
		t.Fatalf("width change not flagged: %+v", deltas[0])
	}
	if deltas[0].BaseWidth != 4 || deltas[0].CurWidth != 8 {
		t.Fatalf("widths not recorded: %+v", deltas[0])
	}
	if deltas[1].WidthChanged || deltas[1].Regressed {
		t.Fatalf("same-width op flagged: %+v", deltas[1])
	}
}

func TestResultWidthRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := &File{GOMAXPROCS: 4, Results: []Result{{Name: "Select1M/w4", NsPerOp: 1, Width: 4}}}
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := got.Find("Select1M/w4"); !ok || r.Width != 4 {
		t.Fatalf("width lost in round trip: %+v", got.Results)
	}
}

// TestOversubscribedWidthRefused: a result pinned to more pool workers
// than the run had processors is neither written nor compared — the
// flat w1/w4/w8 sweeps of a GOMAXPROCS=1 recording measured nothing
// about parallelism and anchored the gate for five PRs.
func TestOversubscribedWidthRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	f := &File{GOMAXPROCS: 2, Results: []Result{{Name: "Select1M/w2", NsPerOp: 1, Width: 2}, {Name: "Select1M/w4", NsPerOp: 1, Width: 4}}}
	if err := Write(path, f); err == nil || !strings.Contains(err.Error(), "Select1M/w4") {
		t.Fatalf("Write accepted a width-4 result from a GOMAXPROCS=2 run: %v", err)
	}
	base := &File{GOMAXPROCS: 1, Results: []Result{{Name: "Select1M/w1", NsPerOp: 100, Width: 1}, {Name: "Select1M/w4", NsPerOp: 100, Width: 4}}}
	cur := &File{GOMAXPROCS: 4, Results: []Result{{Name: "Select1M/w1", NsPerOp: 100, Width: 1}, {Name: "Select1M/w4", NsPerOp: 100, Width: 4}}}
	deltas := Compare(base, cur, 0.25)
	if deltas[0].Oversubscribed || deltas[0].Regressed {
		t.Fatalf("width-1 op flagged: %+v", deltas[0])
	}
	if !deltas[1].Oversubscribed || !deltas[1].Regressed {
		t.Fatalf("width-4 op of a GOMAXPROCS=1 baseline compared: %+v", deltas[1])
	}
}
