package main

import (
	"fmt"
	"math"
	"sort"
)

// window is the width of one measurement window. Rates and latencies are
// medians over windows of per-window figures: on a shared host a stall or a
// slow stretch poisons a whole-run percentile or mean rate, but only the
// windows it covers. The narrower the window, the fewer clean ones a stall
// of a few hundred milliseconds takes with it.
const window = int64(200e6)

// sampler collects the completions of one load-generator goroutine. Each
// goroutine owns one, so nothing here is locked.
type sampler struct {
	counts []int64 // completions per window
	end    []int64 // completion time of each stored sample, ns since phase start
	lat    []int64 // latency of each stored sample, ns
	every  int     // store one latency sample per this many completions
	skip   int

	attempted int64
	failed    int64
	bytes     int64  // useful payload bytes delivered
	why       string // what the first failure was
}

// fail counts one failed operation and keeps the reason of the first.
func (s *sampler) fail(format string, args ...any) {
	s.failed++
	if s.why == "" {
		s.why = fmt.Sprintf(format, args...)
	}
}

func newSampler(windows, every, capHint int) *sampler {
	return &sampler{
		counts: make([]int64, windows),
		end:    make([]int64, 0, capHint),
		lat:    make([]int64, 0, capHint),
		every:  every,
	}
}

// done records one successful completion at end (ns since phase start).
// A completion past the last window (the op in flight at the deadline)
// counts as attempted but belongs to no window.
func (s *sampler) done(end, lat int64) {
	w := end / window
	if w >= int64(len(s.counts)) {
		return
	}
	s.counts[w]++
	s.skip++
	if s.skip >= s.every {
		s.skip = 0
		s.end = append(s.end, end)
		s.lat = append(s.lat, lat)
	}
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), so spreads computed here match the ones
// the driver computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the inter-quartile range as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// windowRates sums the per-window completion counts of every sampler and
// returns them as rates per second.
func windowRates(ss []*sampler) []float64 {
	if len(ss) == 0 {
		return nil
	}
	rates := make([]float64, len(ss[0].counts))
	for _, s := range ss {
		for w, c := range s.counts {
			rates[w] += float64(c)
		}
	}
	for w := range rates {
		rates[w] *= 1e9 / float64(window)
	}
	return rates
}

// minWindowSamples is how many latency samples a window must hold for its
// p99 to mean something (ten samples lie beyond it).
const minWindowSamples = 1000

// tailMerges are the numbers of neighbouring windows a tail window may be
// made of, tried in this order.
var tailMerges = []int{1, 2, 5, 10, 20}

// latencySummary is what the stored latency samples say: of one phase, or,
// after add, of the phases of one run.
type latencySummary struct {
	samples int
	max     int64
	mean    float64
	p999    []float64 // p99.9 of each phase's samples
	// Percentiles of each tail window's samples. The run's latency metrics
	// are medians over these: a stall or a slow stretch of the host spoils
	// the windows it covers and no more.
	windowP50 []float64
	windowP90 []float64
	windowP99 []float64
	// A tail window is this many windows long: on a workload too slow to
	// put minWindowSamples into one window, neighbouring windows are
	// merged (tailMerges).
	tailWindows int
	minSamples  int // fewest samples any tail window held
}

func summarize(ss []*sampler) latencySummary {
	if len(ss) == 0 {
		return latencySummary{}
	}
	windows := len(ss[0].counts)
	perWindow := make([][]int64, windows)
	var all []int64
	var sum float64
	for _, s := range ss {
		for i, l := range s.lat {
			w := s.end[i] / window
			perWindow[w] = append(perWindow[w], l)
			sum += float64(l)
		}
		all = append(all, s.lat...)
	}
	out := latencySummary{samples: len(all)}
	if len(all) == 0 {
		return out
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out.p999 = []float64{float64(quantile(all, 0.999))}
	out.max = all[len(all)-1]
	out.mean = sum / float64(len(all))
	for _, merge := range tailMerges {
		if merge > windows {
			break
		}
		out.tailWindows, out.minSamples = merge, math.MaxInt
		out.windowP50, out.windowP90, out.windowP99 = nil, nil, nil
		for w := 0; w+merge <= windows; w += merge {
			var ls []int64
			for _, part := range perWindow[w : w+merge] {
				ls = append(ls, part...)
			}
			if len(ls) < out.minSamples {
				out.minSamples = len(ls)
			}
			if len(ls) == 0 {
				continue
			}
			sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
			out.windowP50 = append(out.windowP50, float64(quantile(ls, 0.50)))
			out.windowP90 = append(out.windowP90, float64(quantile(ls, 0.90)))
			out.windowP99 = append(out.windowP99, float64(quantile(ls, 0.99)))
		}
		if out.minSamples >= minWindowSamples {
			break
		}
	}
	return out
}

// add folds the summary of another phase of the same run into ls.
func (ls *latencySummary) add(o latencySummary) {
	if o.samples == 0 {
		return
	}
	if ls.samples == 0 {
		*ls = o
		return
	}
	ls.mean = (ls.mean*float64(ls.samples) + o.mean*float64(o.samples)) / float64(ls.samples+o.samples)
	ls.samples += o.samples
	ls.max = max(ls.max, o.max)
	ls.p999 = append(ls.p999, o.p999...)
	ls.windowP50 = append(ls.windowP50, o.windowP50...)
	ls.windowP90 = append(ls.windowP90, o.windowP90...)
	ls.windowP99 = append(ls.windowP99, o.windowP99...)
	ls.tailWindows = max(ls.tailWindows, o.tailWindows)
	ls.minSamples = min(ls.minSamples, o.minSamples)
}
