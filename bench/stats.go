package main

import (
	"math"
	"sort"
)

// summary is how every timed quantity is reported: its median, quartiles
// and the number of samples behind them.
type summary struct {
	Median, P25, P75 float64
	N                int
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return summary{Median: quantile(s, 0.5), P25: quantile(s, 0.25), P75: quantile(s, 0.75), N: len(s)}
}

func median(v []float64) float64 { return summarize(v).Median }

// quantile interpolates linearly between order statistics of a sorted slice.
func quantile(sorted []float64, p float64) float64 {
	i := p * float64(len(sorted)-1)
	lo := int(i)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(i-float64(lo))
}

// coefVar is the standard deviation of v as a share of its mean.
func coefVar(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	mean := sum / float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(v))) / mean
}

// driverSpread is the steadiness figure the benchmark driver computes over a
// set of runs: the distance between the first and third quartile as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), as a share
// of the median.
func driverSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	exclusive := func(p float64) float64 {
		i := p*float64(len(s)+1) - 1
		lo := min(max(int(math.Floor(i)), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*math.Min(math.Max(i-float64(lo), 0), 1)
	}
	return (exclusive(0.75) - exclusive(0.25)) / quantile(s, 0.5)
}
