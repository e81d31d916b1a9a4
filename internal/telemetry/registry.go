// Package telemetry is the observability subsystem for the ArtMem
// stack: a lock-cheap metrics registry (counters, gauges, histograms
// with atomic hot paths) with Prometheus text-format exposition and JSON
// snapshots, plus a bounded decision-trace ring (trace.go) that records
// one structured event per RL period.
//
// Design constraints, in order:
//
//  1. The access hot path must stay hot. Counter.Inc, Gauge.Set and
//     Histogram.Observe are single atomic operations (Observe adds a
//     short bounds scan); no locks, no allocation, no map lookups.
//  2. Disabled telemetry must cost one predictable branch. Every metric
//     method is nil-safe: a nil *Counter, *Gauge or *Histogram is a
//     no-op, so instrumented code never guards call sites.
//  3. Exposition is rare and may be slow. WritePrometheus and Snapshot
//     take the registry mutex and may invoke pull-based metric
//     functions, which are allowed to take their own locks — callers
//     must therefore never hold those locks while scraping.
//
// The registry is deliberately not the Prometheus client library: the
// simulator needs a dependency-free subset (this repo vendors nothing),
// and the pull-function metrics let the online runtime expose
// simulator-internal state that plain atomic metrics cannot represent
// race-free.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one constant key/value pair attached to a metric series.
// Labels distinguish series that share a metric name (e.g. the fast and
// slow occupancy gauges both named artmem_tier_pages).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Counters are monotonic; negative deltas are a programming
// error and are ignored rather than corrupting the series.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as a float64. The
// zero value is ready to use; a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Add adds delta with a compare-and-swap loop.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations in cumulative buckets, Prometheus
// style: bucket i counts observations ≤ Bounds[i], and an implicit
// +Inf bucket counts everything (the overflow bucket). A nil Histogram
// is a no-op.
type Histogram struct {
	bounds  []float64       // sorted upper bounds, exclusive of +Inf
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// DefBuckets is a general-purpose latency ladder in nanoseconds,
// spanning a cache hit (~1ns) to a badly degraded migration (~1ms).
var DefBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1_000, 2_000, 5_000, 10_000, 100_000, 1_000_000,
}

// ExpBuckets returns n exponentially spaced bucket upper bounds
// starting at start and growing by factor — the shape end-to-end
// request latencies want (DefBuckets tops out at 1ms, far below a
// network round trip). Panics on a non-positive start or n, or a
// factor ≤ 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// HDRBuckets returns a log-bucketed high-dynamic-range ladder: the
// range [min, max] is covered by successive power-of-two segments, each
// split into sub linearly spaced sub-buckets — HDR-histogram style
// constant relative error (~1/sub) across the whole range, where a
// plain exponential ladder's error grows with its factor. This is the
// bucket shape the serve-path latency histograms use: tight enough for
// meaningful p99/p999 interpolation from microseconds to seconds
// without hundreds of buckets. Panics on min <= 0, max <= min, or
// sub < 1.
func HDRBuckets(min, max float64, sub int) []float64 {
	if min <= 0 || max <= min || sub < 1 {
		panic("telemetry: HDRBuckets needs 0 < min < max, sub >= 1")
	}
	b := []float64{min}
	for lo := min; lo < max; lo *= 2 {
		step := lo / float64(sub)
		for i := 1; i <= sub; i++ {
			v := lo + step*float64(i)
			if v >= max {
				return append(b, max)
			}
			b = append(b, v)
		}
	}
	return append(b, max)
}

// NewHistogram returns a histogram over the given bucket upper bounds.
// Bounds are sorted and deduplicated; nil bounds use DefBuckets. Useful
// mostly for tests — production code obtains histograms from a Registry.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	uniq := b[:0]
	for i, v := range b {
		if i == 0 || v != b[i-1] {
			uniq = append(uniq, v)
		}
	}
	return &Histogram{
		bounds: uniq,
		counts: make([]atomic.Uint64, len(uniq)+1),
	}
}

// Observe records one observation. Values above the last bound land in
// the +Inf overflow bucket; values at or below the first bound land in
// the first bucket (there is no underflow — Prometheus buckets are
// cumulative upper bounds).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: the bucket ladders here are ~15 entries and hot-path
	// observations cluster in the low buckets, so a scan beats binary
	// search on branch predictability.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Buckets returns the bucket bounds and their cumulative counts; the
// final entry of counts is the +Inf bucket (== Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank — the standard Prometheus histogram_quantile estimate,
// computed server-side. Observations in the +Inf overflow bucket clamp
// to the last finite bound (there is nothing to interpolate toward).
// Returns 0 for an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	bounds, cum := h.Buckets()
	return QuantileFromData(HistogramData{Bounds: bounds, Counts: cum, Sum: h.Sum()}, q)
}

// QuantileFromData is Quantile over materialized bucket state — the
// shared estimator for live histograms, pull-based histogram functions,
// and consumers of the JSON snapshot. Returns 0 when the data is empty.
func QuantileFromData(d HistogramData, q float64) float64 {
	n := len(d.Counts)
	if n == 0 || d.Counts[n-1] == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(d.Counts[n-1])
	i := 0
	for i < len(d.Bounds) && float64(d.Counts[i]) < rank {
		i++
	}
	if i >= len(d.Bounds) {
		// Target rank lands in +Inf: clamp to the last finite bound.
		if len(d.Bounds) == 0 {
			return 0
		}
		return d.Bounds[len(d.Bounds)-1]
	}
	lo := 0.0
	var below uint64
	if i > 0 {
		lo = d.Bounds[i-1]
		below = d.Counts[i-1]
	}
	in := d.Counts[i] - below
	if in == 0 {
		return d.Bounds[i]
	}
	return lo + (d.Bounds[i]-lo)*(rank-float64(below))/float64(in)
}

// HistogramData is a point-in-time histogram produced by a pull-based
// histogram function: cumulative counts per upper bound plus an
// implicit trailing +Inf bucket. Counts has len(Bounds)+1 entries; the
// last is the total observation count.
type HistogramData struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// metricKind is the Prometheus metric type of a series.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	}
	return "gauge"
}

// series is one registered time series.
type series struct {
	name   string // bare metric name (no labels)
	labels string // rendered {k="v",...} or ""
	help   string
	kind   metricKind

	ctr  *Counter
	gag  *Gauge
	hist *Histogram
	fn   func() float64       // pull-based value; used when ctr/gag/hist nil
	hfn  func() HistogramData // pull-based histogram
}

func (s *series) value() float64 {
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gag != nil:
		return s.gag.Value()
	case s.fn != nil:
		return s.fn()
	}
	return 0
}

// Registry holds a set of metric series. Registration takes a mutex;
// the returned metric objects are lock-free. A nil Registry ignores
// registrations and returns nil (no-op) metrics, so a subsystem can be
// instrumented unconditionally and wired to a registry only when one
// exists.
type Registry struct {
	mu     sync.Mutex
	series []*series
	byKey  map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// EscapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double-quote, and line feed become
// \\, \", and \n; every other byte passes through verbatim. (Go's %q
// escapes far more — tabs, non-printables, non-ASCII — which the
// format forbids: a tab in a label value must appear raw.)
func EscapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the exposition format: only
// backslash and line feed (quotes are legal in help text).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", l.Key, EscapeLabelValue(l.Value))
	}
	b.WriteByte('}')
	return b.String()
}

// register adds a series, panicking on duplicate name+labels (metrics
// are registered from code at attach time; a duplicate is a programming
// error, not an input error).
func (r *Registry) register(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := s.name + s.labels
	if _, dup := r.byKey[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", key))
	}
	r.byKey[key] = s
	r.series = append(r.series, s)
}

// Counter registers and returns a counter series. On a nil Registry it
// returns nil (a valid no-op Counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindCounter, ctr: c})
	return c
}

// Gauge registers and returns a gauge series. Nil-Registry-safe.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindGauge, gag: g})
	return g
}

// Histogram registers and returns a histogram series with the given
// bucket bounds (nil uses DefBuckets). Nil-Registry-safe.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	h := NewHistogram(bounds)
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindHistogram, hist: h})
	return h
}

// quantileExposition is the fixed suffix → q ladder every quantiled
// histogram exposes.
var quantileExposition = []struct {
	suffix string
	q      float64
}{
	{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}, {"p999", 0.999},
}

// HistogramQuantiles registers a histogram series (typically over an
// HDRBuckets ladder) plus four pull-based gauge series — name_p50,
// name_p90, name_p99, name_p999 — whose values are interpolated from
// the live bucket state at exposition time. The quantiles therefore
// appear in both the Prometheus text format (as plain gauges, since
// the 0.0.4 format has no native histogram quantiles) and the JSON
// snapshot, with zero observation-path cost beyond the histogram
// itself. Nil-Registry-safe.
func (r *Registry) HistogramQuantiles(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := r.Histogram(name, help, bounds, labels...)
	if r == nil {
		return h
	}
	for _, e := range quantileExposition {
		q := e.q
		r.GaugeFunc(name+"_"+e.suffix,
			fmt.Sprintf("Interpolated %s of %s.", e.suffix, name),
			func() float64 { return h.Quantile(q) }, labels...)
	}
	return h
}

// HistogramFunc registers a pull-based histogram: fn is called at
// exposition time and returns the full bucket state. This is how the
// online runtime exposes an access-latency histogram with zero hot-path
// cost — the simulator counts accesses per (constant) latency class and
// fn folds those counts into buckets under the runtime lock.
// Nil-Registry-safe.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramData, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindHistogram, hfn: fn})
}

// GaugeFunc registers a pull-based gauge: fn is called at exposition
// time. fn may take locks of its own; callers of WritePrometheus and
// Snapshot must not hold those locks. Nil-Registry-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindGauge, fn: fn})
}

// CounterFunc registers a pull-based counter (a monotonic value owned
// by someone else, e.g. a simulator counter read under the runtime
// lock). Nil-Registry-safe.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	r.register(&series{name: name, labels: renderLabels(labels), help: help, kind: kindCounter, fn: fn})
}

// snapshotSeries returns a stable copy of the series slice.
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*series(nil), r.series...)
}

// formatValue renders a sample value in Prometheus text format.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes every series in Prometheus text exposition
// format (version 0.0.4). Series registered under the same bare name
// are grouped under one HELP/TYPE header. Safe for concurrent use with
// metric updates; pull functions run on the caller's goroutine.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	written := make(map[string]bool)
	all := r.snapshotSeries()
	for _, s := range all {
		if !written[s.name] {
			written[s.name] = true
			if s.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.name, escapeHelp(s.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.name, s.kind); err != nil {
				return err
			}
			// Keep same-name series adjacent to their header: emit every
			// series sharing this bare name now (Prometheus requires the
			// group to be contiguous).
			for _, t := range all {
				if t.name != s.name {
					continue
				}
				if err := writeSeries(w, t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// histogramData materializes the bucket state of a histogram series,
// whether backed by a live Histogram or a pull function.
func (s *series) histogramData() HistogramData {
	if s.hfn != nil {
		return s.hfn()
	}
	bounds, cum := s.hist.Buckets()
	return HistogramData{Bounds: bounds, Counts: cum, Sum: s.hist.Sum()}
}

func writeSeries(w io.Writer, s *series) error {
	if s.kind == kindHistogram {
		d := s.histogramData()
		inner := strings.TrimSuffix(strings.TrimPrefix(s.labels, "{"), "}")
		for i, b := range d.Bounds {
			lbl := fmt.Sprintf("le=%q", formatValue(b))
			if inner != "" {
				lbl = inner + "," + lbl
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", s.name, lbl, d.Counts[i]); err != nil {
				return err
			}
		}
		lbl := `le="+Inf"`
		if inner != "" {
			lbl = inner + "," + lbl
		}
		total := d.Counts[len(d.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", s.name, lbl, total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.labels, formatValue(d.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.labels, total)
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", s.name, s.labels, formatValue(s.value()))
	return err
}

// HistogramSnapshot is the JSON form of a histogram series.
type HistogramSnapshot struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets"` // upper bound → cumulative count
}

// Snapshot returns every series as name+labels → value. Counters and
// gauges map to float64, histograms to HistogramSnapshot. The result
// marshals cleanly to JSON.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := make(map[string]any)
	for _, s := range r.snapshotSeries() {
		key := s.name + s.labels
		if s.kind == kindHistogram {
			d := s.histogramData()
			hs := HistogramSnapshot{
				Count:   d.Counts[len(d.Counts)-1],
				Sum:     d.Sum,
				Buckets: make(map[string]uint64, len(d.Bounds)+1),
			}
			for i, b := range d.Bounds {
				hs.Buckets[formatValue(b)] = d.Counts[i]
			}
			hs.Buckets["+Inf"] = d.Counts[len(d.Counts)-1]
			out[key] = hs
			continue
		}
		out[key] = s.value()
	}
	return out
}
