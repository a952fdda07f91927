package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a tail percentile
// before it is reported; a percentile with fewer is dropped.
const minBeyond = 10

// dist is a sample of one quantity, kept whole so any percentile can be
// read from it. Missing samples (requests that failed, were refused or were
// never sent) are counted as +Inf, so they miss every latency limit.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }

func (d *dist) addDur(t time.Duration) { d.add(ms(t)) }

func (d *dist) n() int { return len(d.xs) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
}

// quantile returns the nearest-rank q-quantile and whether the sample
// supports it: a quantile above the median needs minBeyond samples above
// its rank.
func (d *dist) quantile(q float64) (float64, bool) {
	n := len(d.xs)
	if n == 0 {
		return math.NaN(), false
	}
	d.sort()
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	ok := q <= 0.5 || n-1-rank >= minBeyond
	return d.xs[rank], ok
}

// median is the 0.5 quantile (always supported on a non-empty sample).
func (d *dist) median() float64 {
	v, _ := d.quantile(0.5)
	return v
}

// tail returns the highest of p99.9, p99 and p90 the sample supports, with
// its label ("p99"), or ok=false when even p90 is unsupported.
func (d *dist) tail() (label string, v float64, ok bool) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if v, ok := d.quantile(c.q); ok {
			return c.label, v, true
		}
	}
	return "", 0, false
}

// describe renders "p50=… p99=… (n=…)" with every supported percentile.
func (d *dist) describe(unit string) string {
	if d.n() == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50=%.4g%s", d.median(), unit)
	if label, v, ok := d.tail(); ok {
		s += fmt.Sprintf(" %s=%.4g%s", label, v, unit)
	}
	return s + fmt.Sprintf(" (n=%d)", d.n())
}

func ms(t time.Duration) float64 { return float64(t) / float64(time.Millisecond) }

func medianOf(xs []float64) float64 {
	d := dist{xs: append([]float64(nil), xs...)}
	return d.median()
}
