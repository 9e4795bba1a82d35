// Package monet implements the physical layer of the Cobra VDBMS: a
// main-memory database kernel with a binary relational model, modeled
// after the Monet system the paper builds on.
//
// The central structure is the BAT (Binary Association Table), a
// two-column table of (head, tail) associations. All kernel operations
// — selections, joins, aggregation, grouping — are defined over BATs.
// A Store names BATs and provides atomic snapshot persistence, and the
// shared worker pool (DefaultPool) runs the morsel-parallel scans and
// MIL's threadcnt block (the paper's Fig. 4).
//
// Unlike the 2002 Monet, the Store can be made durable: a Journal
// attached via SetJournal receives every store-level mutation (Put,
// Append, Drop, or an atomic multi-BAT Commit) before it becomes
// visible, which internal/wal uses to write-ahead log the kernel and
// recover it after a crash.
package monet

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"strconv"
)

// Type identifies the atomic type of a kernel value or column.
type Type uint8

// Atomic kernel types. Void is the virtual dense-OID column type used
// for BAT heads that are simply consecutive object identifiers. BlobT
// holds raw byte strings — MPEG-7 binary descriptors, thumbnails, or
// any other opaque extracted content stored inside the DBMS proper.
const (
	Void Type = iota
	OIDT
	IntT
	FloatT
	StrT
	BoolT
	BlobT
)

// String returns the MIL-style name of the type.
func (t Type) String() string {
	switch t {
	case Void:
		return "void"
	case OIDT:
		return "oid"
	case IntT:
		return "int"
	case FloatT:
		return "dbl"
	case StrT:
		return "str"
	case BoolT:
		return "bit"
	case BlobT:
		return "blob"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// OID is an object identifier, the glue type of the binary relational
// model: multi-attribute relations are decomposed into BATs that share
// head OIDs.
type OID uint64

// Value is a tagged atomic kernel value. The zero Value is void.
type Value struct {
	Typ Type
	I   int64   // IntT, OIDT (as int64), BoolT (0/1)
	F   float64 // FloatT
	S   string  // StrT
	B   []byte  // BlobT
}

// Convenience constructors.

// NewOID returns an OID-typed value.
func NewOID(o OID) Value { return Value{Typ: OIDT, I: int64(o)} }

// NewInt returns an int-typed value.
func NewInt(i int64) Value { return Value{Typ: IntT, I: i} }

// NewFloat returns a dbl-typed value.
func NewFloat(f float64) Value { return Value{Typ: FloatT, F: f} }

// NewStr returns a str-typed value.
func NewStr(s string) Value { return Value{Typ: StrT, S: s} }

// NewBool returns a bit-typed value.
func NewBool(b bool) Value {
	v := Value{Typ: BoolT}
	if b {
		v.I = 1
	}
	return v
}

// NewBlob returns a blob-typed value. The byte slice is held by
// reference, not copied; callers must not mutate it afterwards.
func NewBlob(b []byte) Value { return Value{Typ: BlobT, B: b} }

// VoidValue is the single value of the void type.
func VoidValue() Value { return Value{Typ: Void} }

// OID returns the value as an OID; valid for OIDT values.
func (v Value) OID() OID { return OID(v.I) }

// Int returns the integer payload (IntT, OIDT, BoolT).
func (v Value) Int() int64 { return v.I }

// Float returns the value as float64, converting integers.
func (v Value) Float() float64 {
	switch v.Typ {
	case FloatT:
		return v.F
	case IntT, OIDT, BoolT:
		return float64(v.I)
	default:
		return math.NaN()
	}
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// Blob returns the byte payload of a blob value.
func (v Value) Blob() []byte { return v.B }

// Bool reports the boolean payload.
func (v Value) Bool() bool { return v.I != 0 }

// IsNil reports whether the value is the void value.
func (v Value) IsNil() bool { return v.Typ == Void }

// String renders the value in MIL literal style.
func (v Value) String() string {
	switch v.Typ {
	case Void:
		return "nil"
	case OIDT:
		return fmt.Sprintf("%d@0", v.I)
	case IntT:
		return strconv.FormatInt(v.I, 10)
	case FloatT:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case StrT:
		return strconv.Quote(v.S)
	case BoolT:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case BlobT:
		return fmt.Sprintf("blob(%d)", len(v.B))
	default:
		return "?"
	}
}

// Compare orders two values of the same type. It returns a negative
// number, zero, or a positive number as a sorts before, equal to, or
// after b. Comparing values of different types compares their types.
// Floats order as cmp.Compare orders them: NaN before every number and
// equal to every NaN, and -0 equal to +0. That is a strict weak order,
// so sorts, extremes, range selects, joins and groups all share it, and
// a range with numeric bounds holds exactly the values IEEE lo <= v <= hi
// admits: no NaN.
func Compare(a, b Value) int {
	if a.Typ != b.Typ {
		return int(a.Typ) - int(b.Typ)
	}
	switch a.Typ {
	case OIDT, IntT, BoolT:
		return cmp.Compare(a.I, b.I)
	case FloatT:
		return cmp.Compare(a.F, b.F)
	case StrT:
		return cmp.Compare(a.S, b.S)
	case BlobT:
		return bytes.Compare(a.B, b.B)
	}
	return 0
}

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// floatKey is the hash key of a float under Compare's equality: -0 and
// +0 share one key, and so do all NaNs.
func floatKey(f float64) uint64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return math.Float64bits(math.NaN())
	}
	return math.Float64bits(f)
}
