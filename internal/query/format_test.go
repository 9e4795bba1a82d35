package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cobra/internal/cobra"
)

// formatResultRef is the wire format as first written, with fmt: the
// reference FormatResult must stay byte-identical to.
func formatResultRef(r Result) string {
	attrs := "-"
	if len(r.Attrs) > 0 {
		parts := make([]string, 0, len(r.Attrs))
		for k, v := range r.Attrs {
			parts = append(parts, k+"="+v)
		}
		sort.Strings(parts)
		attrs = strings.Join(parts, ",")
	}
	return fmt.Sprintf("%.1f %.1f %.3f %s", r.Interval.Start, r.Interval.End, r.Confidence, attrs)
}

func TestFormatResultMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		0.05, 0.15, 0.25, 0.0005, 0.9995, 1e21, -1e-9, math.MaxFloat64, math.SmallestNonzeroFloat64}
	pick := func() float64 {
		switch r.Intn(4) {
		case 0:
			return special[r.Intn(len(special))]
		case 1:
			return math.Float64frombits(r.Uint64())
		default:
			return (r.Float64() - 0.2) * math.Pow(10, float64(r.Intn(8)))
		}
	}
	attrSets := []map[string]string{
		nil, {}, {"driver": "SCH"}, {"word": "pit", "driver": "HAK", "lap": "12"}, {"k": ""}, {"b": "2", "a": "1,=x"},
	}
	for i := 0; i < 20000; i++ {
		res := Result{
			Interval:   cobra.Interval{Start: pick(), End: pick()},
			Confidence: pick(),
			Attrs:      attrSets[r.Intn(len(attrSets))],
		}
		if got, want := FormatResult(res), formatResultRef(res); got != want {
			t.Fatalf("FormatResult(%+v) = %q, fmt renders %q", res, got, want)
		}
	}
}

// fixedCases are the values appendFixed is checked on beyond random
// bits: exact ties at each precision, signed zeros, negatives, the
// values strconv must answer (NaN, infinities, 2^40 and up), and the
// clip-time and confidence grids results are made of.
func fixedCases(grid int) []float64 {
	xs := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		0.25, 2.5, 0.0015, 0.0005, 0.05, 0.15, 0.5, 1.5, 0.125, 0.9995, 1e-9, -0.04, -0.05, -2.5,
		1 << 40, 1<<40 - 1, 1 << 39, (1<<40)/10 - 0.05, (1<<40)/10 + 0.05, 1e12, 1e21, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 5e-324, 0.1, 0.2, 0.3, 1.0 / 3, 2.0 / 3}
	for k := 0; k <= grid; k++ {
		xs = append(xs, float64(k)/10, float64(k)*0.04, float64(k)/1000, float64(k)+0.5, float64(k)/1000+0.0005)
	}
	n := len(xs)
	for _, x := range xs[:n] {
		xs = append(xs, -x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	return xs
}

// TestAppendFixedMatchesStrconv is the formatter's oracle: every value
// at every precision the table covers, and one past it, renders as
// strconv renders it.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	check := func(x float64, prec int) {
		t.Helper()
		if got, want := string(appendFixed(nil, x, prec)), strconv.FormatFloat(x, 'f', prec, 64); got != want {
			t.Fatalf("appendFixed(%v (bits %#x), %d) = %q, strconv renders %q", x, math.Float64bits(x), prec, got, want)
		}
	}
	grid, random := 2000, 50000
	if testing.Short() {
		grid, random = 400, 10000
	}
	for _, x := range fixedCases(grid) {
		for prec := 0; prec <= len(pow10); prec++ {
			check(x, prec)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < random; i++ {
		check(math.Float64frombits(r.Uint64()), r.Intn(len(pow10)+1))
		check((r.Float64()-0.5)*math.Pow(10, float64(r.Intn(14))), r.Intn(len(pow10)+1))
	}
}

// FuzzAppendFixed checks the formatter's identity with strconv on
// arbitrary bits and precisions.
func FuzzAppendFixed(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 0.25, 2.5, 0.0015, -0.04, math.NaN(), math.Inf(-1), 1 << 40, 123.45} {
		f.Add(math.Float64bits(x), uint8(1))
		f.Add(math.Float64bits(x), uint8(3))
	}
	f.Fuzz(func(t *testing.T, bits uint64, prec uint8) {
		x, p := math.Float64frombits(bits), int(prec%12)
		if got, want := string(appendFixed(nil, x, p)), strconv.FormatFloat(x, 'f', p, 64); got != want {
			t.Fatalf("appendFixed(%v (bits %#x), %d) = %q, strconv renders %q", x, bits, p, got, want)
		}
	})
}

// TestAppendResultAppends checks AppendResult extends the buffer it is
// given and that FormatResult is its string.
func TestAppendResultAppends(t *testing.T) {
	r := Result{Interval: cobra.Interval{Start: 1.25, End: 12.35}, Confidence: 0.0015, Attrs: map[string]string{"driver": "SCH"}}
	got := string(AppendResult([]byte("OK 1\n"), r))
	if want := "OK 1\n" + formatResultRef(r); got != want {
		t.Fatalf("AppendResult = %q, want %q", got, want)
	}
	if FormatResult(r) != formatResultRef(r) {
		t.Fatalf("FormatResult = %q, want %q", FormatResult(r), formatResultRef(r))
	}
}

// TestMergeByStart checks the leaf merge against the definition: the
// stable sort by start of all rows in append order.
func TestMergeByStart(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		var all, evs []cobra.Event
		row := 0
		for batch := 0; batch < 1+r.Intn(6); batch++ {
			var tail []cobra.Event
			for n := r.Intn(5); n > 0; n-- {
				// Few distinct starts, so ties are common; Confidence tags the row.
				ev := cobra.Event{Interval: cobra.Interval{Start: float64(r.Intn(6))}, Confidence: float64(row)}
				row++
				tail = append(tail, ev)
			}
			all = append(all, tail...)
			evs = mergeByStart(evs, tail)
		}
		want := append([]cobra.Event(nil), all...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Interval.Start < want[j].Interval.Start })
		if len(evs) != len(want) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(evs), len(want))
		}
		for i := range want {
			if evs[i].Interval.Start != want[i].Interval.Start || evs[i].Confidence != want[i].Confidence {
				t.Fatalf("trial %d: position %d is row %g (start %g), stable sort has row %g (start %g)",
					trial, i, evs[i].Confidence, evs[i].Interval.Start, want[i].Confidence, want[i].Interval.Start)
			}
		}
	}
}
