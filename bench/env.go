package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDirName is the one directory, at the root of the checkout, that
// the benchmark writes to: compiled binaries, the scratch directories
// of a run (removed when the run ends), span files, and — when started
// through run.sh, which points GOCACHE there — the Go build cache.
const buildDirName = ".bench_build"

// environment is what a run records about the machine and the tree, so
// two sets of numbers can be told apart when they should not be
// compared.
type environment struct {
	Root       string
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Commit     string
	ServerBin  string
	IngestBin  string
	// Conns is the number of load-generator connections: at most nproc.
	Conns int
}

// findRoot locates the repository root: the directory holding
// cmd/cobra-server. The harness is started from bench/ (go run -C
// bench .) or from the root (bench/run.sh passes -root).
func findRoot(flagRoot string) (string, error) {
	candidates := []string{flagRoot}
	if flagRoot == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		abs, err := filepath.Abs(c)
		if err != nil {
			return "", err
		}
		if st, err := os.Stat(filepath.Join(abs, "cmd", "cobra-server")); err == nil && st.IsDir() {
			return abs, nil
		}
	}
	return "", fmt.Errorf("no cmd/cobra-server under %v: run from the repository root or pass -root", candidates)
}

// prepareEnvironment caps GOMAXPROCS at nproc, builds the real
// cobra-server and cobra-ingest from the tree and records the facts.
func prepareEnvironment(flagRoot string) (*environment, error) {
	root, err := findRoot(flagRoot)
	if err != nil {
		return nil, err
	}
	env := &environment{Root: root, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: "unknown"}
	if runtime.GOMAXPROCS(0) > env.NProc {
		runtime.GOMAXPROCS(env.NProc)
	}
	env.GoMaxProcs = runtime.GOMAXPROCS(0)
	env.Conns = 2
	if env.NProc < env.Conns {
		env.Conns = env.NProc
	}

	binDir := filepath.Join(root, buildDirName, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return nil, err
	}
	build := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/cobra-server", "./cmd/cobra-ingest")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building cobra-server and cobra-ingest: %w\n%s", err, out)
	}
	env.ServerBin = filepath.Join(binDir, "cobra-server")
	env.IngestBin = filepath.Join(binDir, "cobra-ingest")

	// A driver's checkout is not a git repository; "unknown" is the
	// honest answer there.
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env, nil
}

// scratch makes a fresh directory for one run's data (snapshots, WAL
// directories, span files). The caller removes it.
func (e *environment) scratch() (string, error) {
	return os.MkdirTemp(filepath.Join(e.Root, buildDirName), "run-")
}
