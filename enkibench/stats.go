package main

import (
	"fmt"
	"regexp"
	"sort"
)

// minTailAbove is how many samples must lie above a reported tail
// percentile: a tail read from fewer is one slow day, not a tail.
const minTailAbove = 10

// median returns the median of xs (the mean of the two middle values
// when len(xs) is even), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the nearest-rank pct-th percentile of xs and how
// many samples lie strictly above that rank.
func nearestRank(xs []float64, pct int) (value float64, above int) {
	s := sorted(xs)
	k := (pct*len(s) + 99) / 100 // ⌈pct·n/100⌉ without float rounding
	if k < 1 {
		k = 1
	}
	return s[k-1], len(s) - k
}

// tailPercentile returns the highest whole percentile of xs whose
// nearest-rank value still has at least minTailAbove samples above it,
// with that value. ok is false when the sample is too small for any
// percentile from 50 up.
func tailPercentile(xs []float64) (pct int, value float64, ok bool) {
	for p := 99; p >= 50; p-- {
		v, above := nearestRank(xs, p)
		if above >= minTailAbove {
			return p, v, true
		}
	}
	return 0, 0, false
}

// p90 returns the nearest-rank 90th percentile of xs, or an error when
// fewer than minTailAbove samples lie above it (fewer than 100 days).
func p90(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	v, above := nearestRank(xs, 90)
	if above < minTailAbove {
		return 0, fmt.Errorf("p90 of %d samples has %d above it, need %d", len(xs), above, minTailAbove)
	}
	return v, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed-open span of time in nanoseconds since the run's
// epoch.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// unionLength returns the total time covered by ivs, counting
// overlapping stretches once.
func unionLength(ivs []interval) int64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.end > iv.start {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	var cur interval
	for i, iv := range s {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.dur()
			cur = iv
		}
	}
	if len(s) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span), so overlapping children are
// subtracted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		clipped = append(clipped, c)
	}
	return parent.dur() - unionLength(clipped)
}

// metricName is the shape every printed metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
