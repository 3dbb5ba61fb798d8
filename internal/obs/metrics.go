package obs

import (
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (no-ops), so call sites need no guards.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Bounds are
// inclusive upper bounds ("le" semantics): observation v lands in the
// first bucket with v <= bound, or in the implicit overflow bucket.
// Observe is lock-free; Snapshot may tear between buckets under
// concurrent writes, which is acceptable for telemetry.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow (+Inf)
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets is the default latency layout: exponential from 1µs
// to ~17s in powers of four, in seconds.
func DurationBuckets() []float64 {
	out := make([]float64, 0, 13)
	for b := 1e-6; b < 20; b *= 4 {
		out = append(out, b)
	}
	return out
}

// CountBuckets is the default size layout: powers of four from 1.
func CountBuckets() []float64 {
	out := make([]float64, 0, 12)
	for b := 1.0; b <= 1<<22; b *= 4 {
		out = append(out, b)
	}
	return out
}

// Registry interns named metrics. The zero value is not usable; create
// with NewRegistry. A nil *Registry hands out nil metrics, which no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	rollings map[string]*RollingHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		rollings: make(map[string]*RollingHistogram),
	}
}

// Counter interns a counter by name (nil on a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge interns a gauge by name (nil on a nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram interns a histogram by name. The bucket layout is fixed at
// first intern; later calls with a different layout get the original
// (telemetry must not panic mid-run). Nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Rolling interns a sliding-window histogram by name, with the same
// layout-fixed-at-first-intern contract as Histogram. Nil on a nil
// registry.
func (r *Registry) Rolling(name string, bounds []float64) *RollingHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.rollings[name]
	if !ok {
		h = NewRollingHistogram(bounds)
		r.rollings[name] = h
	}
	return h
}

// HistogramSnapshot is the frozen state of one histogram.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // len(Bounds)+1; last is overflow
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Snapshot is a frozen copy of every metric in a registry, suitable for
// JSON rendering (expvar-style: one object keyed by metric name).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Rollings   map[string]RollingSnapshot   `json:"rollings,omitempty"`
	// Runtime is attached by MetricsHandler when a Runtime collector is
	// configured — sampled at scrape time, absent in offline snapshots.
	Runtime *RuntimeStats `json:"runtime,omitempty"`
}

// Snapshot freezes the registry. Safe on nil (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	if len(r.rollings) > 0 {
		s.Rollings = make(map[string]RollingSnapshot, len(r.rollings))
		for name, h := range r.rollings {
			s.Rollings[name] = h.snapshot()
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON with sorted keys
// (encoding/json sorts map keys), so greps against metric names are
// stable across runs.
func (s Snapshot) WriteJSON(w io.Writer) error {
	return writeJSONIndent(w, s)
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
