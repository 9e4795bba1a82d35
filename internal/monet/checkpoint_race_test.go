package monet_test

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"cobra/internal/monet"
	"cobra/internal/wal"
)

// copyDir copies a data directory as a crash would leave it: whatever
// bytes have reached the files so far.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointConcurrentWithCommits checkpoints while a writer
// commits ticks (one row into each of three BATs plus a put of the
// watermark) and readers select. Every crash image taken right after a
// checkpoint — the new snapshot plus whatever the log holds by then —
// must recover to a whole-tick state: all BATs at the watermark's
// length, no tick half applied, nothing acknowledged before the
// checkpoint began lost. Under -race it also checks that the snapshot
// reads under the read lock while commits swap under the write lock.
func TestCheckpointConcurrentWithCommits(t *testing.T) {
	dir := t.TempDir()
	store := monet.NewStore()
	mgr, err := wal.Open(dir, store, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"tick/a", "tick/b", "tick/c"}
	for _, n := range names {
		if err := store.Put(n, monet.NewBAT(monet.OIDT, monet.FloatT)); err != nil {
			t.Fatal(err)
		}
	}
	tick := func(i int) *monet.WriteBatch {
		var w monet.WriteBatch
		v := []float64{float64(i)}
		w.AppendGroup(monet.FloatTail(names[0], v), monet.FloatTail(names[1], v))
		w.AppendGroup(monet.FloatTail(names[2], v))
		mark := monet.NewBAT(monet.Void, monet.FloatT)
		mark.MustInsert(monet.VoidValue(), monet.NewFloat(float64(i+1)))
		w.Put("tick/mark", mark)
		return &w
	}

	const ticks = 4000
	var acked atomic.Int64
	stop := make(chan struct{})
	writer := make(chan error, 1)
	go func() {
		for i := 0; i < ticks; i++ {
			if err := store.Commit(context.Background(), tick(i)); err != nil {
				writer <- err
				return
			}
			acked.Store(int64(i + 1))
		}
		writer <- nil
	}()
	reader := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				reader <- nil
				return
			default:
			}
			if _, _, err := store.SelectRuns(names[0], monet.NewFloat(0), monet.NewFloat(ticks)); err != nil {
				reader <- err
				return
			}
		}
	}()

	checkImage := func(minTicks int64) {
		t.Helper()
		img := t.TempDir()
		copyDir(t, dir, img)
		rec := monet.NewStore()
		m2, err := wal.Open(img, rec, wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatalf("crash image does not recover: %v", err)
		}
		defer m2.Close()
		n := 0
		if mark, err := rec.Get("tick/mark"); err == nil {
			n = int(mark.Tail(0).Float())
		}
		if int64(n) < minTicks {
			t.Fatalf("recovered %d ticks, %d were acknowledged before the checkpoint began", n, minTicks)
		}
		for _, name := range names {
			b, err := rec.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() != n {
				t.Fatalf("%s recovered with %d rows, the watermark says %d ticks", name, b.Len(), n)
			}
			if n > 0 && (b.Tail(n-1).Float() != float64(n-1) || b.Head(n-1).OID() != monet.OID(n-1)) {
				t.Fatalf("%s last row = (%v,%v), want tick %d", name, b.Head(n-1), b.Tail(n-1), n-1)
			}
		}
	}
	for writing := true; writing; {
		select {
		case err := <-writer:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		before := acked.Load()
		if err := mgr.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		checkImage(before)
	}
	close(stop)
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
	checkImage(ticks)
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}
