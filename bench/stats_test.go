package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The rate is a median over windows: one stalled window must not move it.
func TestWindowMedianRate(t *testing.T) {
	a := newSampler(5, 1, 0)
	b := newSampler(5, 1, 0)
	for w := 0; w < 5; w++ {
		n := 600
		if w == 2 {
			n = 10 // a stall
		}
		for i := 0; i < n; i++ {
			a.done(int64(w)*window+int64(i), 1000)
		}
		for i := 0; i < 400; i++ {
			b.done(int64(w)*window+int64(i), 1000)
		}
	}
	rates := windowRates([]*sampler{a, b})
	perSecond := 1e9 / float64(window)
	want := []float64{1000, 1000, 410, 1000, 1000}
	for i := range want {
		if !near(rates[i], want[i]*perSecond) {
			t.Fatalf("window %d: rate %v, want %v", i, rates[i], want[i]*perSecond)
		}
	}
	if got := median(rates); !near(got, 1000*perSecond) {
		t.Fatalf("median rate %v, want %v", got, 1000*perSecond)
	}
}

// A completion past the last window is not sampled.
func TestCompletionPastDeadlineBelongsToNoWindow(t *testing.T) {
	s := newSampler(2, 1, 0)
	s.done(2*window+5, 1000)
	if s.counts[0]+s.counts[1] != 0 || len(s.lat) != 0 {
		t.Fatalf("sampled a completion outside the windows: %v %v", s.counts, s.lat)
	}
}

// The tail is a median of per-window p99s: one window of outliers must not
// move it, and it must be the 99th percentile of each window.
func TestWindowedP99(t *testing.T) {
	s := newSampler(3, 1, 0)
	for w := 0; w < 3; w++ {
		for i := 1; i <= 1000; i++ {
			lat := int64(i) // p99 of 1..1000 is 990
			if w == 1 && i > 900 {
				lat = 1_000_000 // a bad window
			}
			s.done(int64(w)*window+int64(i), lat)
		}
	}
	ls := summarize([]*sampler{s})
	if ls.tailWindows != 1 || ls.minSamples != 1000 || len(ls.windowP99) != 3 {
		t.Fatalf("tail windows: %+v", ls)
	}
	if ls.windowP99[0] != 990 || ls.windowP99[1] != 1_000_000 || ls.windowP99[2] != 990 {
		t.Fatalf("window p99s %v", ls.windowP99)
	}
	if got := median(ls.windowP99); got != 990 {
		t.Fatalf("median of window p99s %v, want 990", got)
	}
	if ls.max != 1_000_000 || ls.samples != 3000 {
		t.Fatalf("summary %+v", ls)
	}
}

// Windows too thin for a p99 are merged until each holds enough samples.
func TestThinWindowsAreMerged(t *testing.T) {
	s := newSampler(10, 1, 0)
	for w := 0; w < 10; w++ {
		for i := 0; i < 600; i++ {
			s.done(int64(w)*window+int64(i), int64(i))
		}
	}
	ls := summarize([]*sampler{s})
	if ls.tailWindows != 2 || ls.minSamples != 1200 || len(ls.windowP99) != 5 {
		t.Fatalf("tailWindows=%d minSamples=%d windows=%d", ls.tailWindows, ls.minSamples, len(ls.windowP99))
	}
}

// Only one completion in `every` stores a latency sample; all are counted.
func TestSamplerStoresOneInEvery(t *testing.T) {
	s := newSampler(1, 8, 0)
	for i := 0; i < 80; i++ {
		s.done(int64(i), 5)
	}
	if s.counts[0] != 80 || len(s.lat) != 10 {
		t.Fatalf("counted %d, stored %d", s.counts[0], len(s.lat))
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// is what the driver uses on the same values.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

// The summaries of a run's segments fold into one: windows are pooled, the
// mean is weighted by samples, the thinnest window and the widest merge kept.
func TestSummariesOfSegmentsFold(t *testing.T) {
	seg := func(lat int64) latencySummary {
		s := newSampler(2, 1, 0)
		for w := 0; w < 2; w++ {
			for i := 0; i < 1000; i++ {
				s.done(int64(w)*window+int64(i), lat)
			}
		}
		return summarize([]*sampler{s})
	}
	var ls latencySummary
	ls.add(seg(10))
	ls.add(seg(30))
	ls.add(latencySummary{}) // a segment in which nothing completed
	if ls.samples != 4000 || !near(ls.mean, 20) || ls.max != 30 || ls.minSamples != 1000 {
		t.Fatalf("folded summary %+v", ls)
	}
	if len(ls.windowP50) != 4 || len(ls.p999) != 2 || median(ls.windowP50) != 20 {
		t.Fatalf("folded windows %v, p999 %v", ls.windowP50, ls.p999)
	}
}
