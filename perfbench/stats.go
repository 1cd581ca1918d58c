package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// quantile returns the nearest-rank q-quantile.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append(samples(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tail returns the q-quantile if at least ten samples lie beyond it, else
// the highest quantile that has ten beyond it, together with the quantile
// actually used.
func (s samples) tail(q float64) (float64, float64) {
	n := float64(len(s))
	if n*(1-q) < 10 {
		q = max(0.5, (n-10)/n)
	}
	return s.quantile(q), q
}

// medianOf returns the median of a few repeated measurements.
func medianOf(xs []float64) float64 { return samples(xs).median() }
