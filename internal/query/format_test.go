package query

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
