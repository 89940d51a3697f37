package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// A Counter is a monotonically increasing int64. The zero value is ready
// to use; a nil Counter ignores Add and reports zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op when n is counted on a nil
// counter or recording is disabled.
func (c *Counter) Add(n int64) {
	if c == nil || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Gauge is a float64 that can move in both directions (occupancy,
// ratios). The zero value is ready to use; a nil Gauge ignores Set.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v when v is larger, so the gauge holds the
// high-water mark of every value passed. A NaN v is ignored.
func (g *Gauge) SetMax(v float64) {
	if g == nil || !enabled.Load() {
		return
	}
	for old := g.bits.Load(); v > math.Float64frombits(old); old = g.bits.Load() {
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Load returns the gauge's current value.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: bucket i counts observations v with
// 2^(histMinExp+i-1) < v <= 2^(histMinExp+i), so upper bounds are fixed,
// log-spaced powers of two. With histMinExp = -30 and 64 buckets the
// range spans ~1e-9 .. ~8.6e9 in the observed unit — for seconds, one
// nanosecond to centuries; for MB/s, any realistic throughput. Values at
// or below the smallest bound land in bucket 0; values beyond the
// largest land in the last bucket.
const (
	histMinExp  = -30
	histNumBkts = 64
)

// A Histogram records float64 observations into fixed log-spaced
// (power-of-two) buckets. Fixed buckets keep Observe lock-free and
// allocation-free (one math.Frexp and two atomic adds), make histograms
// mergeable across processes and runs, and bound the relative
// quantile-estimation error to at most 2x — adequate for latency work
// where the interesting differences are order-of-magnitude. The zero
// value is ready to use; a nil Histogram ignores Observe.
type Histogram struct {
	counts [histNumBkts]atomic.Int64
	n      atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// bucketIndex maps an observation to its bucket. Non-positive and NaN
// observations land in bucket 0 (they have no magnitude to resolve).
func bucketIndex(v float64) int {
	if !(v > 0) { // NaN and non-positive values both fail v > 0
		return 0
	}
	// Frexp gives v = frac * 2^exp with frac in [0.5, 1), so
	// 2^(exp-1) <= v < 2^exp and v's bucket upper bound is 2^exp —
	// except exact powers of two (frac exactly 0.5), which sit on their
	// own bucket's inclusive upper edge.
	frac, exp := math.Frexp(v)
	if math.Float64bits(frac) == math.Float64bits(0.5) {
		exp--
	}
	i := exp - histMinExp
	if i < 0 {
		return 0
	}
	if i >= histNumBkts {
		return histNumBkts - 1
	}
	return i
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a latency sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveSince records the seconds elapsed since start — the idiomatic
// deferred form: defer h.ObserveSince(time.Now()).
func (h *Histogram) ObserveSince(start time.Time) { h.ObserveDuration(time.Since(start)) }

// HistogramBucket is one non-empty bucket of a snapshot: Count samples
// were observed at values <= UpperBound (and above the previous bucket's
// bound).
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper edge, a power of two in
	// the observed unit.
	UpperBound float64 `json:"le"`
	// Count is the number of samples in this bucket (non-cumulative).
	Count int64 `json:"n"`
}

// HistogramSnapshot is the JSON view of a Histogram: totals, mean,
// estimated quantiles, and the non-empty buckets.
type HistogramSnapshot struct {
	// Count is the total number of samples.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Mean is Sum/Count (0 when empty).
	Mean float64 `json:"mean"`
	// P50, P90, and P99 are bucket-estimated quantiles (geometric bucket
	// midpoints, so at most 2x off; see DESIGN.md §9).
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Buckets lists the non-empty buckets in ascending bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state. Per-bucket atomicity
// only: a snapshot taken under concurrent writes is not a consistent
// cut, which is fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.n.Load()
	s.Sum = math.Float64frombits(h.sum.Load())
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	counts := make([]int64, histNumBkts)
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			counts[i] = c
			s.Buckets = append(s.Buckets, HistogramBucket{
				UpperBound: math.Ldexp(1, histMinExp+i),
				Count:      c,
			})
		}
	}
	s.P50 = quantile(counts, s.Count, 0.50)
	s.P90 = quantile(counts, s.Count, 0.90)
	s.P99 = quantile(counts, s.Count, 0.99)
	return s
}

// quantile estimates the q-th quantile from bucket counts, reporting the
// geometric midpoint of the bucket holding the q-th sample.
func quantile(counts []int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen > rank {
			// Bucket i spans (2^(e-1), 2^e]; report the geometric midpoint
			// 2^(e-0.5) = 2^e / sqrt(2).
			return math.Ldexp(1/math.Sqrt2, histMinExp+i)
		}
	}
	return math.Ldexp(1, histMinExp+histNumBkts-1)
}

// A Registry names and owns a set of instruments. Instruments are
// created on first use (Counter/Gauge/Histogram are get-or-create) so
// call sites need no registration ceremony; Snapshot serializes
// everything for /metrics-style endpoints. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry all pipeline layers
// (transform, compress, core, storage, faultio) record into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is the JSON document form of a registry: instrument name to
// current value, with map iteration order normalized by the encoder.
type Snapshot struct {
	// Counters maps counter names to their current counts.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges maps gauge names to their current values.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms maps histogram names to their snapshots.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current value. Per-instrument
// atomicity only; the set is not a consistent cut.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Merge returns a snapshot combining s and other. Name collisions
// resolve in other's favor — used to overlay a server's local registry
// on the process-wide pipeline registry for a single /metrics document.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)+len(other.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)+len(other.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)+len(other.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range other.Counters {
		out.Counters[k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range other.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range other.Histograms {
		out.Histograms[k] = v
	}
	return out
}
