package analyzers

import (
	"strings"
	"testing"

	"cobra/internal/vet"
	"cobra/internal/vet/vettest"
)

func TestSpanEnd(t *testing.T) {
	vettest.Run(t, SpanEnd, "testdata/spanend")
}

func TestCtxSpan(t *testing.T) {
	vettest.Run(t, CtxSpan, "testdata/ctxspan")
}

func TestGoFatal(t *testing.T) {
	vettest.Run(t, GoFatal, "testdata/gofatal")
}

func TestStoreLock(t *testing.T) {
	vettest.Run(t, StoreLock, "testdata/storelock")
}

func TestErrWrap(t *testing.T) {
	vettest.Run(t, ErrWrap, "testdata/errwrap")
}

func TestPoolLeak(t *testing.T) {
	vettest.Run(t, PoolLeak, "testdata/poolleak")
}

func TestEpochGuard(t *testing.T) {
	vettest.Run(t, EpochGuard, "testdata/epochguard")
}

// The four module analyzers run over two fixture packages each — a
// library package and a dependent package — so every test exercises
// fact export on one side of the import and import on the other.

func TestLockOrder(t *testing.T) {
	vettest.RunDirs(t, LockOrder, "testdata/lockorder/a", "testdata/lockorder/b")
}

func TestGoLeak(t *testing.T) {
	vettest.RunDirs(t, GoLeak, "testdata/goleak/leaklib", "testdata/goleak")
}

func TestAllocHot(t *testing.T) {
	vettest.RunDirs(t, AllocHot, "testdata/allochot/hotlib", "testdata/allochot")
}

func TestChanSend(t *testing.T) {
	vettest.RunDirs(t, ChanSend, "testdata/chansend/sendlib", "testdata/chansend")
}

func TestAllowLint(t *testing.T) {
	vettest.Run(t, AllowLint, "testdata/allowlint")
}

// TestModuleAnalyzerDeterminism re-runs every module analyzer over its
// fixture packages and requires byte-identical diagnostics each time:
// the interprocedural build walks maps (summaries, fact store, lock
// graph), and any iteration-order leak shows up here as a shuffled
// report.
func TestModuleAnalyzerDeterminism(t *testing.T) {
	cases := []struct {
		name string
		run  func() string
	}{
		{"lockorder", func() string {
			return render(vettest.Diagnostics(t, LockOrder, "testdata/lockorder/a", "testdata/lockorder/b"))
		}},
		{"goleak", func() string {
			return render(vettest.Diagnostics(t, GoLeak, "testdata/goleak/leaklib", "testdata/goleak"))
		}},
		{"allochot", func() string {
			return render(vettest.Diagnostics(t, AllocHot, "testdata/allochot/hotlib", "testdata/allochot"))
		}},
		{"chansend", func() string {
			return render(vettest.Diagnostics(t, ChanSend, "testdata/chansend/sendlib", "testdata/chansend"))
		}},
	}
	for _, c := range cases {
		first := c.run()
		if first == "" {
			t.Fatalf("%s: no diagnostics at all — fixture went stale", c.name)
		}
		for i := 0; i < 3; i++ {
			if got := c.run(); got != first {
				t.Errorf("%s: run %d differs\nfirst:\n%s\ngot:\n%s", c.name, i+2, first, got)
			}
		}
	}
}

func render(diags []vet.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
