package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Counter is a monotonically increasing metric: requests served, batches
// coalesced, cache misses. Add is wait-free — one atomic add on a striped,
// cache-line-padded cell — and safe for any number of concurrent writers.
type Counter struct {
	cells []cell
}

func newCounter() *Counter { return &Counter{cells: make([]cell, numStripes)} }

// Inc adds one.
func (c *Counter) Inc() { c.cells[stripe()].n.Add(1) }

// Add adds n (n must be non-negative for the exported value to stay
// monotone; this is not checked on the hot path).
func (c *Counter) Add(n uint64) { c.cells[stripe()].n.Add(n) }

// Value sums the stripes. A concurrent Add may or may not be included, but
// the value never goes backwards and is never torn: every stripe is read
// with a single atomic load.
func (c *Counter) Value() uint64 {
	var v uint64
	for i := range c.cells {
		v += c.cells[i].n.Load()
	}
	return v
}

// Gauge is a metric that can go up and down: queue depth, component count,
// current learning rate. It stores float64 bits in one atomic word — gauges
// are set far less often than counters are bumped, so striping buys nothing.
type Gauge struct {
	bits atomic.Uint64
}

func newGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus) and tracks their sum. Observe is lock-free: the bucket
// index is found with a short linear scan of the bounds, then one atomic add
// on this goroutine's stripe row plus a CAS on the stripe-local sum, so
// concurrent observers never contend on a shared word.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf bucket is implicit
	rows   []histRow // one row per stripe
}

// histRow is one stripe's buckets and sum, padded so rows don't share lines.
type histRow struct {
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	_      [cacheLine - 8 - 24]byte
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, rows: make([]histRow, numStripes)}
	for i := range h.rows {
		h.rows[i].counts = make([]atomic.Uint64, len(bs)+1)
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	row := &h.rows[stripe()]
	row.counts[i].Add(1)
	for {
		old := row.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if row.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Snapshot returns the cumulative bucket counts (one per bound, plus +Inf
// last), the total count and the sum of observations. Concurrent Observes
// land in either this snapshot or the next.
func (h *Histogram) Snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.bounds)+1)
	for r := range h.rows {
		row := &h.rows[r]
		for i := range row.counts {
			cum[i] += row.counts[i].Load()
		}
		sum += math.Float64frombits(row.sum.Load())
	}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	count = cum[len(cum)-1]
	return cum, count, sum
}

// Bounds returns the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// ExpBuckets returns n bucket bounds starting at start, each factor times
// the previous — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start
		start *= factor
	}
	return bs
}

// DefLatencyBuckets spans 100µs–~25s in ×2.5 steps, fitting both the
// micro-batched predictor (sub-millisecond) and full training epochs.
var DefLatencyBuckets = ExpBuckets(100e-6, 2.5, 14)
