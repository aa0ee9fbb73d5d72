package main

import (
	"testing"
	"time"
)

func TestPercentileKnownAnswers(t *testing.T) {
	var hundred []time.Duration
	for i := 100; i >= 1; i-- { // reversed: the helper must sort
		hundred = append(hundred, time.Duration(i)*time.Millisecond)
	}
	cases := []struct {
		samples []time.Duration
		p       float64
		want    time.Duration
	}{
		{hundred, 50, 50 * time.Millisecond},
		{hundred, 90, 90 * time.Millisecond},
		{hundred, 100, 100 * time.Millisecond},
		{hundred, 0.5, 1 * time.Millisecond},
		{[]time.Duration{7}, 90, 7},
		{[]time.Duration{4, 1, 3, 2}, 50, 2},
		{[]time.Duration{4, 1, 3, 2}, 90, 4},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %g) = %v, want %v", len(c.samples), c.p, got, c.want)
		}
	}
	if hundred[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
}

func TestRateAndMedian(t *testing.T) {
	if got := rate(30, 2*time.Second); got != 15 {
		t.Errorf("rate(30, 2s) = %g, want 15", got)
	}
	if got := rate(5, 0); got != 0 {
		t.Errorf("rate over an empty window = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g, want 2.5", got)
	}
	if got := ms(1500 * time.Microsecond); got != 1.5 {
		t.Errorf("ms(1.5ms) = %g", got)
	}
}

// Slices and set-ups with more steal than stealLimit are left out, unless
// the quiet ones cover under a third of the window or too few replies;
// then the least stolen others are added.
func TestQuietScreening(t *testing.T) {
	e := &e2eResult{
		slices: []stealSlice{{Steal: 0}, {Steal: 0.1}, {Steal: 0.01}},
		setups: []setupRun{{Seconds: 1, Steal: 0}, {Seconds: 9, Steal: 0.3}, {Seconds: 2, Steal: 0.02}, {Seconds: 3, Steal: 0.01}, {Seconds: 8, Steal: 0.1}},
	}
	check := func(want ...bool) {
		t.Helper()
		got := e.quiet()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("quiet = %v, want %v", got, want)
			}
		}
	}
	check(true, false, true)
	if got := e.setupSeconds(); got != 2 {
		t.Errorf("setupSeconds = %g, want the median of the quiet runs, 2", got)
	}
	// Under a third quiet: the least stolen other slice joins.
	e.slices = []stealSlice{{Steal: 0.5}, {Steal: 0.4}, {Steal: 0.5}, {Steal: 0}}
	check(false, true, false, true)
	// Too few replies in the quiet slice: slices join by steal until the
	// class has minSamples.
	e.slices = []stealSlice{{Steal: 0}, {Steal: 0.5}, {Steal: 0.3}}
	for i, n := range []int{50, 60, 60} {
		for j := 0; j < n; j++ {
			e.samples = append(e.samples, sample{class: classSim, ok: true, slice: i})
		}
	}
	check(true, false, true)
	e.setups = []setupRun{{Seconds: 3, Steal: 0.5}, {Seconds: 5, Steal: 0.5}, {Seconds: 9, Steal: 0.9}, {Seconds: 4, Steal: 0.3}}
	if got := e.setupSeconds(); got != 4 {
		t.Errorf("setupSeconds = %g, want the median of the three least stolen, 4", got)
	}
}
