package main

import "sort"

func sorted(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s
}

// median of xs (the mean of the middle pair for an even count); 0 when
// xs is empty.
func median(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tailSamples is the number of samples that must lie beyond a reported
// tail percentile.
const tailSamples = 10

// tail returns the highest percentile that has at least tailSamples samples
// beyond it — the (tailSamples+1)-th largest sample — with that
// percentile. With too few samples for any, it returns the maximum and
// percentile 100.
func tail(xs []int64) (value int64, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= tailSamples {
		return s[n-1], 100
	}
	i := n - 1 - tailSamples
	return s[i], 100 * float64(i+1) / float64(n)
}

// tailWindow is the number of consecutive samples (ops or collections)
// whose tail is taken separately: the 11th largest of 100 is p89.
const tailWindow = 100

// windowedTail splits xs (in time order) into windows of w samples, takes
// each window's tail, and returns the median of those tails with the
// per-window percentile and the window count. A run-wide tail over
// hundreds of ops or thousands of pauses is decided by the few seconds
// in which the host ran slowest; the median of per-window tails is the
// same statistic made steady. Fewer than w samples form a single window.
func windowedTail(xs []int64, w int) (value int64, pct float64, windows int) {
	if len(xs) < w {
		v, p := tail(xs)
		return v, p, 1
	}
	var tails []int64
	for i := 0; i+w <= len(xs); i += w {
		v, p := tail(xs[i : i+w])
		tails = append(tails, v)
		pct = p
	}
	return median(tails), pct, len(tails)
}
