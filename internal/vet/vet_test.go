package vet

import (
	"go/token"
	"strings"
	"testing"
)

func TestLoaderTypechecksModulePackage(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if l.ModPath != "cobra" {
		t.Fatalf("module path = %q", l.ModPath)
	}
	pkg, err := l.Load("cobra/internal/monet")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "monet" || len(pkg.Files) == 0 {
		t.Fatalf("pkg = %+v", pkg)
	}
	if pkg.Types.Scope().Lookup("Store") == nil {
		t.Error("monet.Store not in package scope")
	}
	if len(pkg.TestFiles) == 0 {
		t.Error("monet test files not parsed")
	}
	// Loading again hits the cache and returns the same package.
	again, err := l.Load("cobra/internal/monet")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Error("second load did not hit the cache")
	}
}

func TestModulePackagesListsKnownPaths(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"cobra/internal/monet": false,
		"cobra/internal/vet":   false,
		"cobra/cmd/cobravet":   false,
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package listed: %s", p)
		}
		if p == "cobra/bench" {
			t.Errorf("nested module listed as a package of this one: %s", p)
		}
		if _, ok := want[p]; ok {
			want[p] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("package %s not listed (got %v)", p, paths)
		}
	}
}

func TestRunReportsInPositionOrder(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load("cobra/internal/vet")
	if err != nil {
		t.Fatal(err)
	}
	noisy := &Analyzer{
		Name: "noisy",
		Doc:  "test analyzer reporting every file's package clause",
		Run: func(p *Pass) error {
			// Report in reverse to prove Run sorts.
			for i := len(p.Pkg.Files) - 1; i >= 0; i-- {
				p.Reportf(p.Pkg.Files[i].Package, "file %d", i)
			}
			return nil
		},
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{noisy})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != len(pkg.Files) {
		t.Fatalf("diags = %d, want %d", len(diags), len(pkg.Files))
	}
	var prev token.Position
	for _, d := range diags {
		if d.Position.Filename < prev.Filename {
			t.Errorf("out of order: %s after %s", d.Position, prev)
		}
		prev = d.Position
		if d.Analyzer != "noisy" || !strings.HasPrefix(d.Message, "file ") {
			t.Errorf("diag = %+v", d)
		}
	}
}
