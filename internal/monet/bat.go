package monet

import (
	"errors"
	"fmt"
	"sort"

	"cobra/internal/obs"
)

// Per-operator invocation counters for the kernel's bulk operators.
// Counters are cached package-side so the hot paths pay one atomic add
// per operator call, never a registry lookup.
var (
	opSelect   = obs.C("monet.bat.select")
	opUselect  = obs.C("monet.bat.uselect")
	opFilter   = obs.C("monet.bat.filter")
	opJoin     = obs.C("monet.bat.join")
	opSemijoin = obs.C("monet.bat.semijoin")
	opKDiff    = obs.C("monet.bat.kdiff")
	opKUnion   = obs.C("monet.bat.kunion")
	opSort     = obs.C("monet.bat.sort")
	opMark     = obs.C("monet.bat.mark")
)

// BAT is a Binary Association Table: a two-column table of
// (head, tail) pairs, the sole bulk data structure of the kernel.
// Decomposed storage represents an n-attribute relation as n BATs
// sharing head OIDs.
type BAT struct {
	head Column
	tail Column
}

// ErrTypeMismatch is returned when an operation receives values or
// operand BATs of incompatible types.
var ErrTypeMismatch = errors.New("monet: type mismatch")

// NewBAT returns an empty BAT with the given head and tail types.
func NewBAT(headType, tailType Type) *BAT {
	return &BAT{head: NewColumn(headType), tail: NewColumn(tailType)}
}

// NewBATCap returns an empty BAT with capacity for n entries.
func NewBATCap(headType, tailType Type, n int) *BAT {
	return &BAT{head: NewColumnCap(headType, n), tail: NewColumnCap(tailType, n)}
}

// HeadType returns the type of the head column.
func (b *BAT) HeadType() Type { return b.head.Type() }

// TailType returns the type of the tail column.
func (b *BAT) TailType() Type { return b.tail.Type() }

// Len returns the number of associations (BUNs) in the BAT.
func (b *BAT) Len() int { return b.head.Len() }

// Insert appends one (head, tail) association.
func (b *BAT) Insert(h, t Value) error {
	if b.head.Type() != Void && h.Typ != b.head.Type() {
		return fmt.Errorf("%w: head %v into [%v,%v]", ErrTypeMismatch, h.Typ, b.head.Type(), b.tail.Type())
	}
	if b.tail.Type() != Void && t.Typ != b.tail.Type() {
		return fmt.Errorf("%w: tail %v into [%v,%v]", ErrTypeMismatch, t.Typ, b.head.Type(), b.tail.Type())
	}
	b.head.Append(h)
	b.tail.Append(t)
	return nil
}

// MustInsert is Insert that panics on type mismatch; used by internal
// operators that construct BATs of known types.
func (b *BAT) MustInsert(h, t Value) {
	if err := b.Insert(h, t); err != nil {
		panic(err)
	}
}

// Head returns the i-th head value.
func (b *BAT) Head(i int) Value { return b.head.Get(i) }

// Tail returns the i-th tail value.
func (b *BAT) Tail(i int) Value { return b.tail.Get(i) }

// Reverse returns a view of the BAT with head and tail swapped. It is
// O(1): the result shares columns with the receiver.
func (b *BAT) Reverse() *BAT { return &BAT{head: b.tail, tail: b.head} }

// Mirror returns a BAT pairing each head value with itself.
func (b *BAT) Mirror() *BAT { return &BAT{head: b.head, tail: b.head} }

// materialType maps the virtual void type to the concrete OID type:
// output columns built by value insertion must not lose void-head
// identities.
func materialType(t Type) Type {
	if t == Void {
		return OIDT
	}
	return t
}

// headCompatible reports whether two head types can be compared
// value-wise (void heads materialize as OIDs).
func headCompatible(a, b Type) bool {
	return materialType(a) == materialType(b)
}

// Mark returns a BAT pairing each head value with a fresh dense OID
// sequence starting at base.
func (b *BAT) Mark(base OID) *BAT {
	opMark.Inc()
	out := NewBATCap(materialType(b.head.Type()), OIDT, b.Len())
	for i := 0; i < b.Len(); i++ {
		out.MustInsert(b.head.Get(i), NewOID(base+OID(i)))
	}
	return out
}

// Clone returns a deep copy.
func (b *BAT) Clone() *BAT { return &BAT{head: b.head.Clone(), tail: b.tail.Clone()} }

// Slice returns a new BAT holding rows [lo, hi).
func (b *BAT) Slice(lo, hi int) *BAT {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}
}

// Select returns the associations whose tail lies in [lo, hi]
// (inclusive). Pass equal lo and hi for point selection. The typed
// range-select kernel (rangesel.go) scans large BATs morsel-parallel on
// the shared pool; the result is identical for any pool width.
func (b *BAT) Select(lo, hi Value) *BAT {
	opSelect.Inc()
	idx := colSelectIdx(b.tail, lo, hi)
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}
}

// SelectEq returns the associations whose tail equals v.
func (b *BAT) SelectEq(v Value) *BAT { return b.Select(v, v) }

// Uselect returns a BAT [head, void] of the heads whose tail lies in
// [lo, hi]; the unary form of Select. Like Select it goes
// morsel-parallel on large inputs.
func (b *BAT) Uselect(lo, hi Value) *BAT {
	opUselect.Inc()
	idx := colSelectIdx(b.tail, lo, hi)
	return &BAT{head: b.head.Gather(idx), tail: &voidColumn{n: len(idx)}}
}

// Filter returns the associations for which pred returns true; the
// kernel hook for arbitrary selections.
func (b *BAT) Filter(pred func(h, t Value) bool) *BAT {
	opFilter.Inc()
	idx := make([]int, 0, 16)
	for i := 0; i < b.Len(); i++ {
		if pred(b.head.Get(i), b.tail.Get(i)) {
			idx = append(idx, i)
		}
	}
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}
}

// Join returns the equi-join of b with other over b.tail == other.head,
// producing [b.head, other.tail]. Against a void head the probe is a
// bounds check (voidProbe); otherwise a hash table is built over
// other.head, and large operands build the table sharded and probe it
// morsel-parallel, producing the same pair order as the serial
// nested-probe loop.
func (b *BAT) Join(other *BAT) (*BAT, error) {
	opJoin.Inc()
	if !headCompatible(b.tail.Type(), other.head.Type()) {
		return nil, fmt.Errorf("%w: join tail %v with head %v", ErrTypeMismatch, b.tail.Type(), other.head.Type())
	}
	if in := voidProbe(b.tail, other); in != nil {
		lIdx := make([]int, 0, b.Len())
		rIdx := make([]int, 0, b.Len())
		for i := 0; i < b.Len(); i++ {
			if j, ok := in(i); ok {
				lIdx = append(lIdx, i)
				rIdx = append(rIdx, j)
			}
		}
		return &BAT{head: b.head.Gather(lIdx), tail: other.tail.Gather(rIdx)}, nil
	}
	if p, ok := poolFor(b.Len()); ok {
		return b.joinPar(p, other), nil
	}
	out := NewBAT(materialType(b.head.Type()), materialType(other.tail.Type()))
	// Build hash on other.head → positions.
	ht := buildHash(other.head)
	for i := 0; i < b.Len(); i++ {
		t := b.tail.Get(i)
		for _, j := range ht.lookup(t) {
			out.MustInsert(b.head.Get(i), other.tail.Get(j))
		}
	}
	return out, nil
}

// voidProbe returns, when other's head is void, the probe of column c
// (void or oid) against it: a void head holds exactly the OIDs
// [0, other.Len()) at their own positions, so the OID at row i of c
// matches position j = that OID when it lies in range — no hash table
// and no boxed row. It returns nil for any other head.
func voidProbe(c Column, other *BAT) func(i int) (j int, ok bool) {
	if other.head.Type() != Void {
		return nil
	}
	n := int64(other.Len())
	if _, dense := c.(*voidColumn); dense {
		return func(i int) (int, bool) { return i, int64(i) < n }
	}
	at := intReader(c)
	return func(i int) (int, bool) {
		k := at(i)
		return int(k), k >= 0 && k < n
	}
}

// joinPar is the morsel-parallel equi-join: each probe morsel emits
// its (left position, right position) match pairs, the pairs are
// concatenated in morsel order, and two gathers materialize the output
// columns — exactly the rows the serial probe loop inserts.
func (b *BAT) joinPar(p *Pool, other *BAT) *BAT {
	ht := buildHashIndex(other.head)
	nm := numMorsels(b.Len())
	lParts := make([][]int, nm)
	rParts := make([][]int, nm)
	runMorsels(p, b.Len(), hPoolJoinLat, hPoolJoinSpd, func(m, lo, hi int) {
		// Probe into arena scratch sized for the common
		// at-most-one-match case; higher join multiplicity appends past
		// the arena buffer onto the heap but stays morsel-bounded. The
		// surviving pairs are copied out exact-size before the arena is
		// returned.
		a := GetArena()
		ls := a.Ints(hi - lo)[:0]
		rs := a.Ints(hi - lo)[:0]
		for i := lo; i < hi; i++ {
			t := b.tail.Get(i)
			for _, j := range ht.lookup(t) {
				ls = append(ls, i) //cobravet:allow allochot // appends into arena scratch presized to the morsel; join fan-out past it migrates off-arena once, not per row
				rs = append(rs, j) //cobravet:allow allochot // same arena scratch as ls
			}
		}
		lParts[m] = append([]int(nil), ls...)
		rParts[m] = append([]int(nil), rs...)
		PutArena(a)
	})
	total := 0
	for _, part := range lParts {
		total += len(part)
	}
	lIdx := make([]int, 0, total)
	rIdx := make([]int, 0, total)
	for m := range lParts {
		lIdx = append(lIdx, lParts[m]...)
		rIdx = append(rIdx, rParts[m]...)
	}
	return &BAT{head: b.head.Gather(lIdx), tail: other.tail.Gather(rIdx)}
}

// Semijoin returns the associations of b whose head appears as a head
// in other.
func (b *BAT) Semijoin(other *BAT) (*BAT, error) {
	opSemijoin.Inc()
	if !headCompatible(b.head.Type(), other.head.Type()) {
		return nil, fmt.Errorf("%w: semijoin head %v with head %v", ErrTypeMismatch, b.head.Type(), other.head.Type())
	}
	idx := b.headsIn(other, true)
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}, nil
}

// KDiff returns the associations of b whose head does not appear as a
// head in other.
func (b *BAT) KDiff(other *BAT) (*BAT, error) {
	opKDiff.Inc()
	if !headCompatible(b.head.Type(), other.head.Type()) {
		return nil, fmt.Errorf("%w: kdiff head %v with head %v", ErrTypeMismatch, b.head.Type(), other.head.Type())
	}
	idx := b.headsIn(other, false)
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}, nil
}

// headsIn returns the ascending positions of b whose head appears
// (want) or does not appear (!want) among other's heads.
func (b *BAT) headsIn(other *BAT, want bool) []int {
	if in := voidProbe(b.head, other); in != nil {
		return filterIdx(b.Len(), func(i int) bool { _, ok := in(i); return ok == want })
	}
	ht := buildHashIndex(other.head)
	return filterIdx(b.Len(), func(i int) bool { return (len(ht.lookup(b.head.Get(i))) > 0) == want })
}

// KUnion returns b with the associations of other appended. Types must
// match exactly.
func (b *BAT) KUnion(other *BAT) (*BAT, error) {
	opKUnion.Inc()
	if b.head.Type() != other.head.Type() || b.tail.Type() != other.tail.Type() {
		return nil, fmt.Errorf("%w: kunion [%v,%v] with [%v,%v]", ErrTypeMismatch,
			b.head.Type(), b.tail.Type(), other.head.Type(), other.tail.Type())
	}
	out := b.Clone()
	for i := 0; i < other.Len(); i++ {
		out.MustInsert(other.Head(i), other.Tail(i))
	}
	return out, nil
}

// Find returns the tail associated with the first occurrence of head h,
// and whether any was found — the kernel's point lookup (MIL find).
func (b *BAT) Find(h Value) (Value, bool) {
	for i := 0; i < b.Len(); i++ {
		if Equal(b.head.Get(i), h) {
			return b.tail.Get(i), true
		}
	}
	return Value{}, false
}

// Exists reports whether head h occurs in the BAT.
func (b *BAT) Exists(h Value) bool {
	_, ok := b.Find(h)
	return ok
}

// SortTail returns a copy of the BAT ordered by ascending tail.
func (b *BAT) SortTail() *BAT {
	opSort.Inc()
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return Compare(b.tail.Get(idx[i]), b.tail.Get(idx[j])) < 0
	})
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}
}

// SortHead returns a copy of the BAT ordered by ascending head.
func (b *BAT) SortHead() *BAT {
	opSort.Inc()
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		return Compare(b.head.Get(idx[i]), b.head.Get(idx[j])) < 0
	})
	return &BAT{head: b.head.Gather(idx), tail: b.tail.Gather(idx)}
}

// String renders a short description of the BAT.
func (b *BAT) String() string {
	return fmt.Sprintf("bat[%v,%v]#%d", b.head.Type(), b.tail.Type(), b.Len())
}

// Dump renders up to max associations for debugging.
func (b *BAT) Dump(max int) string {
	s := b.String() + "{"
	n := b.Len()
	if max > 0 && n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("[%v,%v]", b.Head(i), b.Tail(i))
	}
	if n < b.Len() {
		s += ", ..."
	}
	return s + "}"
}

// hashTable indexes column positions by value. Void heads are never
// hashed: every operator probes them through voidProbe.
type hashTable struct {
	byInt map[int64][]int
	byStr map[string][]int
	byFlt map[float64][]int
}

// newHashTable returns an empty hash table for keys of type t, sized
// for about capHint entries.
func newHashTable(t Type, capHint int) *hashTable {
	ht := &hashTable{}
	switch t {
	case OIDT, IntT, BoolT:
		ht.byInt = make(map[int64][]int, capHint)
	case FloatT:
		ht.byFlt = make(map[float64][]int, capHint)
	case StrT, BlobT:
		ht.byStr = make(map[string][]int, capHint)
	}
	return ht
}

// insert records position i of column c in the table. Positions must
// be inserted in ascending order per key; lookup returns them in
// insertion order.
func (ht *hashTable) insert(c Column, i int) {
	switch c.Type() {
	case OIDT, IntT, BoolT:
		k := c.Get(i).Int()
		ht.byInt[k] = append(ht.byInt[k], i)
	case FloatT:
		k := c.Get(i).Float()
		ht.byFlt[k] = append(ht.byFlt[k], i)
	case StrT:
		k := c.Get(i).Str()
		ht.byStr[k] = append(ht.byStr[k], i)
	case BlobT:
		k := string(c.Get(i).Blob())
		ht.byStr[k] = append(ht.byStr[k], i)
	}
}

// buildHash builds the serial hash index over c. Integer-domain keys
// (int, oid, bool) get the compact count-then-fill layout; other types
// keep the per-key slice table.
func buildHash(c Column) hashIndex {
	if keyAt := intReader(c); keyAt != nil {
		n := c.Len()
		return buildCompactInt(keyAt, n, func(visit func(i int)) {
			for i := 0; i < n; i++ {
				visit(i)
			}
		})
	}
	ht := newHashTable(c.Type(), c.Len())
	for i := 0; i < c.Len(); i++ {
		ht.insert(c, i)
	}
	return ht
}

// compactIntTable is the allocation-disciplined hash index for
// integer-domain keys: instead of one growing position slice per key
// (an allocation per distinct key plus append churn), all positions
// live in one flat array grouped by key, with a slot map and a prefix
// offset array carving it into per-key spans. Lookup returns a
// subslice — zero allocations per probe — and spans keep the build's
// ascending position order, exactly what hashTable.lookup returns.
type compactIntTable struct {
	slots map[int64]int32
	offs  []int
	pos   []int
}

// buildCompactInt builds a compactIntTable in two passes over the
// positions that each yields (which must be visited in the same order
// both times, ascending per key): pass one assigns slots in
// first-occurrence order and counts per-key occupancy, pass two fills
// the flat position array through prefix-sum cursors.
func buildCompactInt(keyAt func(i int) int64, total int, each func(visit func(i int))) *compactIntTable {
	t := &compactIntTable{slots: make(map[int64]int32, total)}
	counts := make([]int, 0, 16)
	each(func(i int) {
		k := keyAt(i)
		slot, seen := t.slots[k]
		if !seen {
			slot = int32(len(counts))
			t.slots[k] = slot
			counts = append(counts, 0)
		}
		counts[slot]++
	})
	t.offs = make([]int, len(counts)+1)
	for s, c := range counts {
		t.offs[s+1] = t.offs[s] + c
	}
	t.pos = make([]int, total)
	copy(counts, t.offs[:len(counts)]) // counts becomes the per-slot write cursor
	each(func(i int) {
		slot := t.slots[keyAt(i)]
		t.pos[counts[slot]] = i
		counts[slot]++
	})
	return t
}

// lookup returns the ascending positions holding v, as a span of the
// flat position array. Non-integer probes miss, matching the typed
// maps of hashTable.
func (t *compactIntTable) lookup(v Value) []int {
	switch v.Typ {
	case OIDT, IntT, BoolT:
		if slot, ok := t.slots[v.Int()]; ok {
			return t.pos[t.offs[slot]:t.offs[slot+1]]
		}
	}
	return nil
}

func (ht *hashTable) lookup(v Value) []int {
	switch v.Typ {
	case OIDT, IntT, BoolT:
		return ht.byInt[v.Int()]
	case FloatT:
		return ht.byFlt[v.Float()]
	case StrT:
		return ht.byStr[v.Str()]
	case BlobT:
		return ht.byStr[string(v.Blob())]
	}
	return nil
}
