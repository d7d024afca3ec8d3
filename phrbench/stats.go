package main

import (
	"math"
	"sort"
	"time"
)

// The benchmark's own statistics. Every timing is kept as a raw sample and
// summarised here; nothing is bucketed.

// quantile returns the q-quantile (0 < q <= 1) of xs by nearest rank: the
// smallest sample with at least a q share of the samples at or below it.
// It sorts xs in place and returns NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	rank = max(0, min(rank, len(xs)-1))
	return xs[rank]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// fromDue is a request's latency in milliseconds, counted from when it was
// due rather than when it was sent. Whatever kept it from going out on
// time, a busy connection or a late wake-up of the generator while the
// service held the CPUs, is charged to it, so a stall shows in every
// request it delayed and coordinated omission stays out of the figures.
func fromDue(due, done time.Time) float64 {
	return ms(done.Sub(due))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one completed request: when it was due (offset into the timed
// window) and its latency from due, in milliseconds.
type sample struct {
	due time.Duration
	ms  float64
}

// halfDrift compares the median latency of the requests due in the first
// half of a window against those due in the second half and returns the
// relative difference |m2-m1| / m1. A run in steady state reads near 0; a
// growing backlog or a cost that grows with uptime reads high. With fewer
// than minPerHalf samples in either half it returns 0: too few to judge.
func halfDrift(samples []sample, window time.Duration, minPerHalf int) float64 {
	var first, second []float64
	for _, s := range samples {
		if s.due < window/2 {
			first = append(first, s.ms)
		} else {
			second = append(second, s.ms)
		}
	}
	if len(first) < minPerHalf || len(second) < minPerHalf {
		return 0
	}
	m1, m2 := median(first), median(second)
	if m1 <= 0 {
		return 0
	}
	return math.Abs(m2-m1) / m1
}

// interval is a closed time interval in nanoseconds since the window start.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its child spans
// cover. Children may overlap each other (a parallel stream) or stick out
// of the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, parent.start), min(c.end, parent.end)
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, c := range clipped {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}
