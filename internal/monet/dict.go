package monet

import "sort"

// Dictionary encoding for string columns: the distinct tail values,
// sorted, plus one small integer code per row. Equality and range
// selects binary-search the dictionary once and then compare int32
// codes instead of strings, and the dictionary itself answers
// distinct counts — the shot-class / event-type / driver-name shape
// of the paper's workload, where a million rows hold a handful of
// distinct labels.
type strDict struct {
	keys  []string // sorted distinct values
	codes []int32  // per-row code: index into keys
}

// buildDict encodes a str column. Codes preserve order: the code
// comparison code_i < code_j agrees with keys[code_i] < keys[code_j],
// which is what lets range predicates run over codes.
func buildDict(col Column) *strDict {
	sc, ok := col.(*strColumn)
	if !ok {
		return nil
	}
	keys := append([]string(nil), sc.v...)
	sort.Strings(keys)
	w := 0
	for i, k := range keys {
		if i == 0 || k != keys[w-1] {
			keys[w] = k
			w++
		}
	}
	keys = keys[:w]
	codes := make([]int32, len(sc.v))
	for i, s := range sc.v {
		codes[i] = int32(sort.SearchStrings(keys, s))
	}
	return &strDict{keys: keys, codes: codes}
}

// codeRange compiles [lo, hi] over the column's strings into the
// equivalent predicate over its codes; hit reports whether any
// dictionary entry fell in the range (false = a guaranteed-empty result
// without touching a single row).
func (d *strDict) codeRange(col Column, lo, hi string) (p rangePred, hit bool) {
	cl := sort.SearchStrings(d.keys, lo)
	ch := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] > hi })
	return rangePred{col: col, codes: d.codes, ilo: int64(cl), ihi: int64(ch) - 1, empty: cl >= ch}, cl < ch
}
