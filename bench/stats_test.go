package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {95, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("p99 of one value = %g", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	window := 5 * time.Second
	var samples []sample
	for i := 0; i < 5000; i++ {
		lat := time.Millisecond
		if i >= 1000 && i < 2000 {
			lat = 80 * time.Millisecond // the second fifth of the window is slow
		}
		samples = append(samples, sample{at: time.Duration(i) * time.Millisecond, lat: lat})
	}
	ps, fifths := latencyPercentiles(samples, window)
	if ps != [3]float64{1, 80, 80} {
		t.Errorf("p50, p95, p99 = %v, want 1, 80, 80 ms", ps)
	}
	if want := []float64{1, 80, 1, 1, 1}; !reflect.DeepEqual(fifths, want) {
		t.Errorf("p50 per fifth = %v, want %v", fifths, want)
	}
	// Samples outside the window land in the edge parts.
	_, fifths = latencyPercentiles([]sample{{at: -time.Second, lat: time.Millisecond}, {at: time.Hour, lat: 3 * time.Millisecond}}, window)
	if fifths[0] != 1 || fifths[4] != 3 {
		t.Errorf("edge samples: fifths = %v", fifths)
	}
}

func TestMeanAndP50Us(t *testing.T) {
	ds := []time.Duration{time.Microsecond, 2 * time.Microsecond, 9 * time.Microsecond}
	if got := meanUs(ds); got != 4 {
		t.Errorf("meanUs = %g, want 4", got)
	}
	if got := p50us(ds); got != 2 {
		t.Errorf("p50us = %g, want 2", got)
	}
	if meanUs(nil) != 0 || p50us(nil) != 0 {
		t.Error("empty input is not 0")
	}
}
