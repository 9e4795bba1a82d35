package wal

import (
	"bytes"
	"context"
	"encoding/binary"
	"testing"

	"cobra/internal/monet"
)

// sampleBatch is a batch with every entry kind and both tail types.
func sampleBatch(t testing.TB) *monet.WriteBatch {
	t.Helper()
	s := monet.NewStore()
	var w monet.WriteBatch
	w.Put("ev/type", monet.NewBAT(monet.OIDT, monet.StrT))
	w.Put("ev/start", monet.NewBAT(monet.OIDT, monet.FloatT))
	w.Put("mark", newDriversBAT("schumacher", "barrichello"))
	w.AppendGroup(monet.StrTail("ev/type", []string{"pitstop", "", "flyout"}), monet.FloatTail("ev/start", []float64{1.5, -2, 81.3}))
	// Commit fills in the base rows a journal would see.
	if err := s.Commit(context.Background(), &w); err != nil {
		t.Fatal(err)
	}
	return &w
}

func TestBatchRecordRoundTrip(t *testing.T) {
	w := sampleBatch(t)
	payload, err := EncodeBatch(w)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Op != OpBatch || rec.Batch == nil {
		t.Fatalf("batch round trip: %+v", rec)
	}
	got, want := rec.Batch.Entries(), w.Entries()
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, e := got[i], want[i]
		if g.Name != e.Name || (g.Put == nil) != (e.Put == nil) {
			t.Fatalf("entry %d = %+v, want %+v", i, g, e)
		}
		if e.Put != nil {
			if g.Put.Len() != e.Put.Len() || g.Put.TailType() != e.Put.TailType() {
				t.Fatalf("entry %d put = %v, want %v", i, g.Put, e.Put)
			}
			continue
		}
		if g.Base != e.Base || g.Type != e.Type || g.Rows() != e.Rows() {
			t.Fatalf("entry %d = %+v, want %+v", i, g, e)
		}
		for r := 0; r < e.Rows(); r++ {
			if e.Type == monet.StrT && g.Strs[r] != e.Strs[r] || e.Type == monet.FloatT && g.Floats[r] != e.Floats[r] {
				t.Fatalf("entry %d row %d differs: %+v vs %+v", i, r, g, e)
			}
		}
	}
	// The decoded batch replays onto an empty store, and only there.
	s := monet.NewStore()
	if err := s.Commit(context.Background(), rec.Batch); err != nil {
		t.Fatal(err)
	}
	if b, _ := s.Get("ev/type"); b.Len() != 3 || b.Tail(2).Str() != "flyout" || b.Head(2).OID() != 2 {
		t.Fatalf("replayed ev/type: %v", b)
	}
	rec2, _ := DecodeRecord(payload)
	if err := s.Commit(context.Background(), onlyAppends(rec2.Batch)); err == nil {
		t.Fatal("replaying a batch's appends a second time succeeded: base rows are not checked")
	}
}

// onlyAppends strips the puts from a decoded batch, so a second replay
// meets BATs that already hold its rows.
func onlyAppends(w *monet.WriteBatch) *monet.WriteBatch {
	var entries []monet.BatchEntry
	for _, e := range w.Entries() {
		if e.Put == nil {
			entries = append(entries, e)
		}
	}
	return monet.ReplayBatch(entries)
}

// TestDecodeRejectsOversizedCounts feeds length fields that promise
// more than the record holds: each must be refused before anything is
// allocated from it.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	appendHdr := cat([]byte{OpBatch}, u32(1), []byte{batchAppend}, u32(1), []byte("a"), make([]byte, 8))
	for name, payload := range map[string][]byte{
		"entry count": cat([]byte{OpBatch}, u32(1<<31)),
		"name length": cat([]byte{OpBatch}, u32(1), []byte{batchAppend}, u32(1<<30), []byte("a")),
		"float rows":  cat(appendHdr, []byte{byte(monet.FloatT)}, u32(1<<29), make([]byte, 16)),
		"str rows":    cat(appendHdr, []byte{byte(monet.StrT)}, u32(1<<30), make([]byte, 16)),
		"put size":    cat([]byte{OpBatch}, u32(1), []byte{batchPut}, u32(1), []byte("a"), u32(1<<31-1)),
		"put rows":    cat([]byte{OpPut}, u32(1), []byte("a"), u32(0xC0B2A001), u32(uint32(monet.Void)<<8|uint32(monet.StrT)), u32(1<<31), u32(1<<31)),
		"put types":   cat([]byte{OpPut}, u32(1), []byte("a"), u32(0xC0B2A001), u32(0x7f7f), u32(1)),
		"tail type":   cat(appendHdr, []byte{byte(monet.BlobT)}, u32(1), make([]byte, 8)),
		"trailing":    cat(appendHdr, []byte{byte(monet.FloatT)}, u32(1), make([]byte, 9)),
	} {
		if rec, err := DecodeRecord(payload); err == nil {
			t.Errorf("%s: DecodeRecord accepted %x as %+v", name, payload, rec)
		}
	}
}

// FuzzDecodeRecord: whatever bytes a damaged segment holds behind a
// matching checksum, decoding returns a record or an error — it never
// panics and never allocates from an unchecked length field — and a
// record that decodes encodes back to something that decodes again.
func FuzzDecodeRecord(f *testing.F) {
	put, _ := EncodePut("f1/drivers", newDriversBAT("schumacher", "barrichello"))
	app, _ := EncodeAppend("laps", monet.NewOID(7), monet.NewFloat(81.3))
	blob, _ := EncodeAppend("thumbs", monet.VoidValue(), monet.NewBlob([]byte{1, 2, 3}))
	batch, _ := EncodeBatch(sampleBatch(f))
	for _, seed := range [][]byte{put, app, blob, EncodeDrop("laps"), batch, nil, {OpBatch}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		var again []byte
		switch rec.Op {
		case OpPut:
			again, err = EncodePut(rec.Name, rec.BAT)
		case OpAppend:
			again, err = EncodeAppend(rec.Name, rec.Head, rec.Tail)
		case OpDrop:
			again = EncodeDrop(rec.Name)
		case OpBatch:
			again, err = EncodeBatch(rec.Batch)
		}
		if err != nil {
			t.Fatalf("re-encoding a decoded record: %v", err)
		}
		if _, err := DecodeRecord(again); err != nil {
			t.Fatalf("decoding a re-encoded record: %v", err)
		}
	})
}
