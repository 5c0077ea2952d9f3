// Package obs is the observability layer of the simulated machine: a
// metrics registry of typed counters, gauges and log-bucketed histograms
// (keyed per core, per LLC bank, per NVM controller and per mechanism
// event), and a cycle-stamped event tracer with per-core ring-buffer
// shards exportable as Chrome trace_event JSON (chrome://tracing,
// Perfetto) or as a compact text timeline.
//
// Machine events are counted once, in the Counts block each machine
// owns and always fills with plain adds. The registry's machine-count
// families (persist/issued, stall, llc, nvm/persists and the rest) are
// read-through views of that block, registered when a machine is built
// with an Observer. The Observer itself holds only what is not a machine
// count: histograms, the tracer, and the host-side counters of tooling
// (trace I/O, recovery quarantine, the kv service). Its typed hooks
// tolerate a nil receiver; the machine layers guard them with a nil
// check, so a machine built without observability pays one predicted
// branch per hook site and allocates nothing.
//
// Observability never perturbs the simulation: hooks read virtual time,
// they do not advance it. A run with an Observer attached produces
// cycle-for-cycle the same execution as a run without one (asserted by
// TestObserverTimingNeutral in the root package).
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 instrument: either the
// registry's own, with atomic increments so concurrent tooling (a pprof
// scrape, a progress printer) can read it while a tool writes it, or a
// read-through view of a count kept elsewhere (View).
type Counter struct {
	v    uint64
	read func() uint64
}

// Add increments the counter by n. Adding to a view panics.
func (c *Counter) Add(n uint64) {
	if c.read != nil {
		panic("obs: Add on a read-through counter view")
	}
	atomic.AddUint64(&c.v, n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.read != nil {
		return c.read()
	}
	return atomic.LoadUint64(&c.v)
}

// Gauge is an instantaneous int64 level (queue depth, occupancy).
type Gauge struct {
	v int64
}

// Set stores the current level.
func (g *Gauge) Set(v int64) { atomic.StoreInt64(&g.v, v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// MetricKind discriminates registry entries.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "?"
	}
}

// Registry is a name-indexed set of instruments. Registration (Counter,
// Gauge, Histogram) takes a lock and may allocate; it happens when the
// machine is assembled. The returned instruments are stable pointers the
// hot path updates lock-free.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

func (r *Registry) checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if _, ok := r.counts[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// Counter returns the counter registered under name, creating it on first
// use. It panics if the name is held by a different instrument kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counts[name]; ok {
		return c
	}
	r.checkName(name)
	c := &Counter{}
	r.counts[name] = c
	return c
}

// View registers a counter that reads its value through read: a view of
// a count the machine keeps in its Counts block. It panics if the name
// is already registered, so one Observer cannot silently serve two
// machines.
func (r *Registry) View(name string, read func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	r.counts[name] = &Counter{read: read}
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkName(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkName(name)
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// MetricValue is one registry entry's snapshot.
type MetricValue struct {
	Name string
	Kind MetricKind
	// Value is the counter count or gauge level (histograms use Hist).
	Value int64
	// Hist is the histogram snapshot (KindHistogram only).
	Hist *HistSnapshot
}

// Snapshot returns every instrument's current value, sorted by name.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.counts)+len(r.gauges)+len(r.hists))
	for name, c := range r.counts { // maprange:ok — snapshot is sorted by name below
		out = append(out, MetricValue{Name: name, Kind: KindCounter, Value: int64(c.Value())})
	}
	for name, g := range r.gauges { // maprange:ok — snapshot is sorted by name below
		out = append(out, MetricValue{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists { // maprange:ok — snapshot is sorted by name below
		s := h.Snapshot()
		out = append(out, MetricValue{Name: name, Kind: KindHistogram, Value: int64(s.Count), Hist: &s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SumCounters sums every counter whose name starts with prefix — the
// aggregate across a per-core or per-bank family ("persist/issued/").
func (r *Registry) SumCounters(prefix string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum uint64
	for name, c := range r.counts { // maprange:ok — summation is order-independent
		if strings.HasPrefix(name, prefix) {
			sum += c.Value()
		}
	}
	return sum
}

// MergeHistograms merges every histogram whose name starts with prefix
// into one snapshot — the machine-wide view of a per-core family.
func (r *Registry) MergeHistograms(prefix string) HistSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var merged HistSnapshot
	for name, h := range r.hists { // maprange:ok — histogram merge is commutative
		if strings.HasPrefix(name, prefix) {
			merged.Merge(h.Snapshot())
		}
	}
	return merged
}
