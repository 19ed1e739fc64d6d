// Package metrics provides the summary statistics the paper's evaluation
// methodology uses: mean response times with 90% confidence intervals ("we
// computed the 90% confidence interval for the mean response time; in all
// cases, the width of this interval was found to be less than 10%"),
// plus percentiles for the failure-response-time experiments the paper calls
// for but does not report.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. The consensus layer exports its protocol activity (instances started,
// rounds run, messages sent, fast-path hits) through Counters so benchmarks
// and liveness diagnostics can compute per-commit rates.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a level that moves both ways, safe for concurrent use. Unlike a
// Counter it reports occupancy, not activity: the consensus layer uses one
// for the live batch-log slot map so the memory soak can watch it
// stay flat under the checkpointed truncation instead of growing with every
// decided cohort.
type Gauge struct {
	v atomic.Int64
}

// Inc raises the level by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add moves the level by n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// EWMA is an exponentially weighted moving average, safe for concurrent
// use. The adaptive batching windows use one to smooth the observed
// in-flight depth: instantaneous depth whipsaws between ticks under bursty
// arrivals, and the window sizing should follow the sustained load, not the
// last sample.
type EWMA struct {
	alpha float64
	bits  atomic.Uint64 // float64 bits of the current average; 0 = no samples yet
}

// NewEWMA returns an average weighting each new observation by alpha
// (0 < alpha <= 1); smaller alpha means a longer memory.
func NewEWMA(alpha float64) *EWMA {
	return &EWMA{alpha: alpha}
}

// Observe folds one sample into the average. The first sample seeds the
// average directly.
func (e *EWMA) Observe(v float64) {
	for {
		old := e.bits.Load()
		var next float64
		if old == 0 {
			next = v
		} else {
			cur := math.Float64frombits(old)
			next = cur + e.alpha*(v-cur)
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Value returns the current average (0 before any observation).
func (e *EWMA) Value() float64 {
	b := e.bits.Load()
	if b == 0 {
		return 0
	}
	return math.Float64frombits(b)
}

// Sample accumulates observations. Safe for concurrent use.
type Sample struct {
	mu   sync.Mutex
	vals []float64
}

// NewSample creates an empty sample.
func NewSample() *Sample { return &Sample{} }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.mu.Lock()
	s.vals = append(s.vals, v)
	s.mu.Unlock()
}

// AddDuration records a duration in milliseconds (the paper's unit).
func (s *Sample) AddDuration(d time.Duration) {
	s.Add(float64(d) / float64(time.Millisecond))
}

// N returns the number of observations.
func (s *Sample) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Mean returns the sample mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return mean(s.vals)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func (s *Sample) StdDev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return stddev(s.vals)
}

func stddev(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := mean(vals)
	ss := 0.0
	for _, v := range vals {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vals)-1))
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.vals) == 0 {
		return 0
	}
	m := s.vals[0]
	for _, v := range s.vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 < p <= 100) using linear
// interpolation between order statistics.
func (s *Sample) Percentile(p float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, s.vals)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// t90 holds two-sided 90% Student-t critical values for small degrees of
// freedom; beyond the table the normal approximation (1.645) applies.
var t90 = []float64{
	0,                                 // df 0 (unused)
	6.314, 2.920, 2.353, 2.132, 2.015, // df 1-5
	1.943, 1.895, 1.860, 1.833, 1.812, // df 6-10
	1.796, 1.782, 1.771, 1.761, 1.753, // df 11-15
	1.746, 1.740, 1.734, 1.729, 1.725, // df 16-20
	1.721, 1.717, 1.714, 1.711, 1.708, // df 21-25
	1.706, 1.703, 1.701, 1.699, 1.697, // df 26-30
}

// CI90 returns the half-width of the 90% confidence interval of the mean.
func (s *Sample) CI90() float64 {
	s.mu.Lock()
	n := len(s.vals)
	sd := stddev(s.vals)
	s.mu.Unlock()
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.645
	if df < len(t90) {
		t = t90[df]
	}
	return t * sd / math.Sqrt(float64(n))
}

// Summary is a one-line digest of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	CI90   float64
	P50    float64
	P99    float64
	Min    float64
	Max    float64
}

// Summarize computes the digest.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		CI90:   s.CI90(),
		P50:    s.Percentile(50),
		P99:    s.Percentile(99),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// String renders the digest in milliseconds.
func (sm Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms ±%.2f (90%% CI) p50=%.2f p99=%.2f min=%.2f max=%.2f",
		sm.N, sm.Mean, sm.CI90, sm.P50, sm.P99, sm.Min, sm.Max)
}
