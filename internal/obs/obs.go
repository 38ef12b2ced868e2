// Package obs is a dependency-free operational metrics layer: atomic
// counters, gauges and fixed-bucket latency histograms behind a registry
// that serves the Prometheus text exposition format. The deployed system of
// §7.1 runs continuously against a live ~15k-taxi feed, so the live tier
// must be observable without attaching a debugger — queue depths, per-stage
// latencies, drop and rejection rates all surface here and are scraped from
// queued's /metrics endpoint.
//
// Design constraints, in order:
//
//   - zero external dependencies (the repo builds with the stock toolchain);
//   - hot-path writes are a single atomic op (Counter.Inc, Gauge.Set) or a
//     bucket search plus two atomics (Histogram.Observe) — cheap enough to
//     run per record at full ingest rate;
//   - registration is idempotent: asking for the same (name, labels) series
//     twice returns the same collector, so a service can be restarted
//     against a shared registry (e.g. the package-level Default) without
//     duplicate-registration errors, and the source of truth for any
//     counter is a single object — /ingest/stats and /metrics read the same
//     atomics and can never disagree.
//
// The exposition side holds the registry lock only long enough to snapshot
// values; collectors themselves are lock-free.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is usable,
// but counters normally come from Registry.Counter so they are exported.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must not be negative (counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are latency histogram bounds (seconds) spanning 10µs to 10s —
// wide enough for both per-record hot paths and whole-batch stages.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3,
	1e-2, 2.5e-2, 0.1, 0.25, 1, 2.5, 10,
}

// Histogram is a fixed-bucket histogram. Buckets are cumulative at
// exposition time (Prometheus `le` convention); internally each bucket
// counts only its own range so Observe touches exactly one bucket.
type Histogram struct {
	bounds []float64      // sorted upper bounds; implicit +Inf after
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS loop
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
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

// Since observes the elapsed seconds from t0 — the standard way to time a
// stage: t0 := time.Now(); ...; h.Since(t0).
func (h *Histogram) Since(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// kind discriminates what a series holds.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) time series.
type series struct {
	labels string // rendered {a="b",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups every series of one metric name (one HELP/TYPE block).
type family struct {
	name, help string
	kind       kind
	order      []string // label strings in registration order
	series     map[string]*series
}

// Registry holds metric families and renders them in the Prometheus text
// format. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Default is the process-wide registry: long-lived singletons (the batch
// pipeline stage timers, queued's service) register here; tests that need
// isolation use NewRegistry.
var Default = NewRegistry()

// lookup finds or creates the (name, labels) series, enforcing that a name
// keeps one kind and one help string for its lifetime. A series is complete
// before it becomes visible: a new histogram is built from bounds, and a
// gauge func is (re)set to fn, under the same lock a scrape reads under.
func (r *Registry) lookup(k kind, name, help string, labels []Label, bounds []float64, fn func() float64) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.kind != k {
		panic("obs: metric " + name + " registered as " + f.kind.String() + " and " + k.String())
	}
	s := f.series[ls]
	if s == nil {
		s = &series{labels: ls}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			h := &Histogram{bounds: append([]float64(nil), bounds...)}
			h.counts = make([]atomic.Int64, len(h.bounds)+1)
			s.h = h
		}
		f.series[ls] = s
		f.order = append(f.order, ls)
	}
	if k == kindGaugeFunc {
		s.fn = fn
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(kindCounter, name, help, labels, nil, nil).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(kindGauge, name, help, labels, nil, nil).g
}

// GaugeFunc registers (or replaces) a computed gauge: fn is called at
// scrape time. Use for values owned elsewhere, like a channel's depth or a
// map's size under its own lock; fn must be safe to call from the scrape
// goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(kindGaugeFunc, name, help, labels, nil, fn)
}

// Histogram returns the histogram for (name, labels), creating it with the
// given bucket bounds (sorted ascending, +Inf implicit) on first use.
// Later calls return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.lookup(kindHistogram, name, help, labels, bounds, nil).h
}

// renderLabels builds the canonical `{a="b",c="d"}` form, sorted by label
// name so the same set always maps to the same series.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the text-format label escapes: backslash, quote,
// newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
