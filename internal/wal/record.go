package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cobra/internal/monet"
)

// Record operation codes. The op byte is the first byte of every
// record payload.
const (
	// OpPut registers or replaces a whole BAT: the payload carries the
	// BAT name followed by the BAT in the kernel snapshot format.
	OpPut byte = 1
	// OpAppend appends one (head, tail) association: the payload
	// carries the BAT name, the two value types, and the two values in
	// the snapshot value codec. Written by Store.Append only; older
	// logs also hold one per row per column of every chunk append.
	OpAppend byte = 2
	// OpDrop removes a BAT: the payload carries only the name.
	OpDrop byte = 3
	// OpBatch is one atomic Store.Commit: an entry count, then per
	// entry a kind byte and the BAT name, followed for an append by
	// base row (u64), tail type (u8), row count (u32) and the raw typed
	// tails — little-endian float64s, or u32-length-prefixed strings;
	// no per-value type tags, no heads — and for a put by the
	// u32-length-prefixed BAT in the snapshot format. The whole batch
	// sits under one frame checksum, so a torn one is dropped whole.
	OpBatch byte = 4
)

// Entry kinds inside an OpBatch record.
const (
	batchAppend byte = 1
	batchPut    byte = 2
)

// Record is one decoded write-ahead-log entry.
type Record struct {
	// Op is one of OpPut, OpAppend, OpDrop, OpBatch.
	Op byte
	// Name is the BAT the mutation targets (empty for OpBatch, whose
	// entries carry their own names).
	Name string
	// BAT is the full table carried by an OpPut record.
	BAT *monet.BAT
	// Head and Tail are the appended association of an OpAppend record.
	Head, Tail monet.Value
	// Batch holds the entries of an OpBatch record, pinned to the base
	// rows the log recorded (monet.ReplayBatch).
	Batch *monet.WriteBatch
}

// EncodePut encodes an OpPut record for name and b.
func EncodePut(name string, b *monet.BAT) ([]byte, error) { return appendPut(nil, name, b) }

// EncodeAppend encodes an OpAppend record for one association.
func EncodeAppend(name string, h, t monet.Value) ([]byte, error) {
	return appendAppend(nil, name, h, t)
}

// EncodeDrop encodes an OpDrop record for name.
func EncodeDrop(name string) []byte { return appendDrop(nil, name) }

// EncodeBatch encodes an OpBatch record for a write batch.
func EncodeBatch(w *monet.WriteBatch) ([]byte, error) { return appendBatch(nil, w) }

// The append* encoders extend dst with one record payload and return
// it, so the log can encode straight into its reused frame buffer.

func appendPut(dst []byte, name string, b *monet.BAT) ([]byte, error) {
	return appendBAT(appendName(append(dst, OpPut), name), b)
}

func appendAppend(dst []byte, name string, h, t monet.Value) ([]byte, error) {
	buf := bytes.NewBuffer(append(appendName(append(dst, OpAppend), name), byte(h.Typ), byte(t.Typ)))
	if err := monet.WriteValue(buf, h); err != nil {
		return nil, err
	}
	if err := monet.WriteValue(buf, t); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func appendDrop(dst []byte, name string) []byte { return appendName(append(dst, OpDrop), name) }

func appendBatch(dst []byte, w *monet.WriteBatch) ([]byte, error) {
	entries := w.Entries()
	dst = binary.LittleEndian.AppendUint32(append(dst, OpBatch), uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		if e.Put != nil {
			dst = appendName(append(dst, batchPut), e.Name)
			at := len(dst)
			var err error
			if dst, err = appendBAT(append(dst, 0, 0, 0, 0), e.Put); err != nil {
				return nil, err
			}
			binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
			continue
		}
		dst = appendName(append(dst, batchAppend), e.Name)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Base))
		dst = binary.LittleEndian.AppendUint32(append(dst, byte(e.Type)), uint32(e.Rows()))
		switch e.Type {
		case monet.FloatT:
			for _, f := range e.Floats {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
			}
		case monet.StrT:
			for _, s := range e.Strs {
				dst = appendName(dst, s)
			}
		default:
			return nil, fmt.Errorf("wal: batch append to %q: cannot encode %v tails", e.Name, e.Type)
		}
	}
	return dst, nil
}

// appendBAT extends dst with b in the kernel snapshot format.
func appendBAT(dst []byte, b *monet.BAT) ([]byte, error) {
	buf := bytes.NewBuffer(dst)
	if _, err := b.WriteTo(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// appendName frames a string as u32 length + bytes.
func appendName(dst []byte, name string) []byte {
	return append(binary.LittleEndian.AppendUint32(dst, uint32(len(name))), name...)
}

// DecodeRecord parses one record payload. Every length and count field
// is checked against the bytes actually remaining before anything is
// allocated from it, so a corrupt or hostile payload costs an error.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record")
	}
	rec := Record{Op: payload[0]}
	c := cursor(payload[1:])
	if rec.Op == OpBatch {
		entries, err := c.batch()
		if err != nil {
			return Record{}, fmt.Errorf("wal: batch: %w", err)
		}
		rec.Batch = monet.ReplayBatch(entries)
		return rec, nil
	}
	name, err := c.name()
	if err != nil {
		return Record{}, fmt.Errorf("wal: record name: %w", err)
	}
	rec.Name = name
	switch rec.Op {
	case OpPut:
		b, err := monet.ReadBAT(bytes.NewReader(c))
		if err != nil {
			return Record{}, fmt.Errorf("wal: put %q: %w", name, err)
		}
		rec.BAT = b
	case OpAppend:
		types, err := c.take(2)
		if err != nil {
			return Record{}, fmt.Errorf("wal: append %q: %w", name, err)
		}
		r := bytes.NewReader(c)
		if rec.Head, err = monet.ReadValue(r, monet.Type(types[0])); err != nil {
			return Record{}, fmt.Errorf("wal: append %q head: %w", name, err)
		}
		if rec.Tail, err = monet.ReadValue(r, monet.Type(types[1])); err != nil {
			return Record{}, fmt.Errorf("wal: append %q tail: %w", name, err)
		}
	case OpDrop:
	default:
		return Record{}, fmt.Errorf("wal: unknown op %d", rec.Op)
	}
	return rec, nil
}

// cursor is the undecoded rest of a record payload.
type cursor []byte

// take consumes the next n bytes.
func (c *cursor) take(n int) ([]byte, error) {
	if n > len(*c) {
		return nil, io.ErrUnexpectedEOF
	}
	b := (*c)[:n]
	*c = (*c)[n:]
	return b, nil
}

// count consumes a u32 count of items of at least minSize bytes each
// and rejects it unless that many bytes remain in the record.
func (c *cursor) count(minSize int) (int, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	n := int64(binary.LittleEndian.Uint32(b))
	if n*int64(minSize) > int64(len(*c)) {
		return 0, fmt.Errorf("count %d exceeds record", n)
	}
	return int(n), nil
}

// name is the inverse of appendName.
func (c *cursor) name() (string, error) {
	n, err := c.count(1)
	if err != nil {
		return "", err
	}
	b, _ := c.take(n) // count checked that n bytes remain
	return string(b), nil
}

// batch decodes the entries of an OpBatch payload (after the op byte).
func (c *cursor) batch() ([]monet.BatchEntry, error) {
	n, err := c.count(1 + 4) // an entry is at least a kind byte and a name length
	if err != nil {
		return nil, fmt.Errorf("entry count: %w", err)
	}
	entries := make([]monet.BatchEntry, n)
	for i := range entries {
		e := &entries[i]
		kind, err := c.take(1)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		if e.Name, err = c.name(); err != nil {
			return nil, fmt.Errorf("entry %d name: %w", i, err)
		}
		switch kind[0] {
		case batchPut:
			size, err := c.count(1)
			if err != nil {
				return nil, fmt.Errorf("put %q: %w", e.Name, err)
			}
			raw, _ := c.take(size)
			if e.Put, err = monet.ReadBAT(bytes.NewReader(raw)); err != nil {
				return nil, fmt.Errorf("put %q: %w", e.Name, err)
			}
		case batchAppend:
			hdr, err := c.take(8 + 1)
			if err != nil {
				return nil, fmt.Errorf("append %q: %w", e.Name, err)
			}
			base := binary.LittleEndian.Uint64(hdr)
			if base > math.MaxInt32 {
				return nil, fmt.Errorf("append %q: base row %d out of range", e.Name, base)
			}
			e.Base, e.Type = int(base), monet.Type(hdr[8])
			switch e.Type {
			case monet.FloatT:
				rows, err := c.count(8)
				if err != nil {
					return nil, fmt.Errorf("append %q: %w", e.Name, err)
				}
				raw, _ := c.take(8 * rows)
				e.Floats = make([]float64, rows)
				for j := range e.Floats {
					e.Floats[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))
				}
			case monet.StrT:
				rows, err := c.count(4)
				if err != nil {
					return nil, fmt.Errorf("append %q: %w", e.Name, err)
				}
				e.Strs = make([]string, rows)
				for j := range e.Strs {
					if e.Strs[j], err = c.name(); err != nil {
						return nil, fmt.Errorf("append %q row %d: %w", e.Name, j, err)
					}
				}
			default:
				return nil, fmt.Errorf("append %q: cannot decode %v tails", e.Name, e.Type)
			}
		default:
			return nil, fmt.Errorf("entry %d: unknown kind %d", i, kind[0])
		}
	}
	if len(*c) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(*c))
	}
	return entries, nil
}
