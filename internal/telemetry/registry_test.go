package telemetry

import (
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g.Add(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %g, want 2", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Add(1)
	h.Observe(1)
	tr.Append(Event{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || tr.Events(0) != nil {
		t.Error("nil metrics accumulated state")
	}
	if r.Counter("x", "") != nil || r.Gauge("y", "") != nil || r.Histogram("z", "", nil) != nil {
		t.Error("nil registry returned live metrics")
	}
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
	if r.Snapshot() != nil {
		t.Error("nil registry Snapshot != nil")
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("fresh histogram count=%d sum=%g", h.Count(), h.Sum())
	}
	bounds, cum := h.Buckets()
	if len(bounds) != 2 || len(cum) != 3 {
		t.Fatalf("buckets: %v / %v", bounds, cum)
	}
	for i, c := range cum {
		if c != 0 {
			t.Errorf("bucket %d = %d, want 0", i, c)
		}
	}
	// Exposition of an empty histogram must still be well-formed, with
	// the +Inf bucket present and every sample at 0.
	r := NewRegistry()
	r.Histogram("empty_hist", "no observations", []float64{1, 10})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`empty_hist_bucket{le="+Inf"} 0`,
		"empty_hist_sum 0",
		"empty_hist_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBucketingEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	h.Observe(-5)  // below first bound: first bucket (cumulative ≤ 1)
	h.Observe(1)   // exactly on a bound: that bucket (le is inclusive)
	h.Observe(10)  // on the middle bound
	h.Observe(11)  // between bounds
	h.Observe(100) // on the last finite bound
	h.Observe(1e9) // overflow: only the +Inf bucket

	bounds, cum := h.Buckets()
	wantBounds := []float64{1, 10, 100}
	for i := range wantBounds {
		if bounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v", bounds)
		}
	}
	wantCum := []uint64{2, 3, 5, 6} // ≤1, ≤10, ≤100, +Inf
	for i := range wantCum {
		if cum[i] != wantCum[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], wantCum[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if want := -5 + 1 + 10 + 11 + 100 + 1e9; h.Sum() != want {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

func TestHistogramOverflowOnly(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.Inf(1))
	h.Observe(2)
	_, cum := h.Buckets()
	if cum[0] != 0 {
		t.Errorf("finite bucket = %d, want 0", cum[0])
	}
	if cum[1] != 2 {
		t.Errorf("+Inf bucket = %d, want 2", cum[1])
	}
}

func TestHistogramBoundsSortedDeduped(t *testing.T) {
	h := NewHistogram([]float64{10, 1, 10, 5})
	bounds, _ := h.Buckets()
	want := []float64{1, 5, 10}
	if len(bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

// promLine matches a Prometheus text-format sample or comment line.
var promLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+]+|\+Inf|-Inf|NaN))$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("art_migrations_total", "pages migrated", L("dir", "promote"))
	c2 := r.Counter("art_migrations_total", "pages migrated", L("dir", "demote"))
	g := r.Gauge("art_tier_pages", "resident pages", L("tier", "fast"))
	h := r.Histogram("art_latency_ns", "access latency", []float64{10, 100})
	r.GaugeFunc("art_pull", "pull-based", func() float64 { return 3.5 })
	c.Add(7)
	c2.Add(2)
	g.Add(128)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	for _, ln := range lines {
		if !promLine.MatchString(ln) {
			t.Errorf("malformed exposition line: %q", ln)
		}
	}
	for _, want := range []string{
		"# TYPE art_migrations_total counter",
		`art_migrations_total{dir="promote"} 7`,
		`art_migrations_total{dir="demote"} 2`,
		"# TYPE art_tier_pages gauge",
		`art_tier_pages{tier="fast"} 128`,
		"# TYPE art_latency_ns histogram",
		`art_latency_ns_bucket{le="10"} 0`,
		`art_latency_ns_bucket{le="100"} 1`,
		`art_latency_ns_bucket{le="+Inf"} 1`,
		"art_latency_ns_sum 50",
		"art_latency_ns_count 1",
		"art_pull 3.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per bare name, even with two labeled series.
	if n := strings.Count(out, "# TYPE art_migrations_total"); n != 1 {
		t.Errorf("TYPE header emitted %d times, want 1", n)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "", L("k", "v")).Add(1.5)
	h := r.Histogram("h_ns", "", []float64{10})
	h.Observe(4)
	h.Observe(400)

	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
	var round map[string]any
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round["c_total"].(float64) != 3 {
		t.Errorf("c_total = %v", round["c_total"])
	}
	if round[`g{k="v"}`].(float64) != 1.5 {
		t.Errorf("labeled gauge = %v", round[`g{k="v"}`])
	}
	hm := round["h_ns"].(map[string]any)
	if hm["count"].(float64) != 2 {
		t.Errorf("histogram count = %v", hm["count"])
	}
	buckets := hm["buckets"].(map[string]any)
	if buckets["10"].(float64) != 1 || buckets["+Inf"].(float64) != 2 {
		t.Errorf("histogram buckets = %v", buckets)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "")
}

func TestDuplicateNameDistinctLabelsAllowed(t *testing.T) {
	r := NewRegistry()
	r.Counter("multi_total", "", L("tier", "fast"))
	r.Counter("multi_total", "", L("tier", "slow"))
}

func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cc_total", "")
	g := r.Gauge("gg", "")
	h := r.Histogram("hh", "", []float64{1, 2, 4, 8})
	var wg sync.WaitGroup
	const workers, iters = 8, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 10))
			}
		}(w)
	}
	// Scrape concurrently with the writers.
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		r.Snapshot()
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Errorf("counter = %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Errorf("gauge = %g, want %d", g.Value(), workers*iters)
	}
	if h.Count() != workers*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
}

// TestLabelValueEscapingRoundTrip pins the exposition-format escaping
// rules: backslash, quote, and newline are escaped (\\, \", \n), and
// nothing else is — a tab must survive raw, unlike Go's %q. The
// round trip parses the rendered line back and compares values.
func TestLabelValueEscapingRoundTrip(t *testing.T) {
	values := []string{
		`plain`,
		`back\slash`,
		"line\nfeed",
		`quo"te`,
		"all\\three\"at\nonce",
		"raw\ttab stays raw",
		`trailing backslash\`,
	}
	for _, v := range values {
		if got := unescapeLabelValue(EscapeLabelValue(v)); got != v {
			t.Errorf("round trip %q -> %q", v, got)
		}
	}
	if got := EscapeLabelValue("a\\b\"c\nd\te"); got != "a\\\\b\\\"c\\nd\te" {
		t.Errorf("escape = %q", got)
	}

	// Full exposition round trip: render a gauge carrying every special
	// character, then parse the sample line back.
	r := NewRegistry()
	hostile := "path\\to\"x\"\nend"
	r.Gauge("esc_gauge", "", L("p", hostile)).Add(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var sample string
	for _, ln := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(ln, "esc_gauge{") {
			sample = ln
		}
	}
	if sample == "" {
		t.Fatalf("no sample line in:\n%s", b.String())
	}
	if strings.Count(sample, "\n") != 0 {
		t.Fatalf("sample line contains a raw newline: %q", sample)
	}
	open, close := strings.Index(sample, `p="`), strings.LastIndex(sample, `"}`)
	if open < 0 || close < 0 {
		t.Fatalf("unparsable sample line %q", sample)
	}
	if got := unescapeLabelValue(sample[open+3 : close]); got != hostile {
		t.Errorf("parsed label = %q, want %q", got, hostile)
	}
}

// TestHelpEscaping: HELP text with backslashes or newlines must render
// on one line per the exposition format.
func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("help_esc_total", "first\nsecond \\ done")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP help_esc_total first\nsecond \\ done`
	if !strings.Contains(b.String(), want) {
		t.Errorf("missing %q in:\n%s", want, b.String())
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"go_goroutines", "go_heap_objects_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing runtime metric %q", want)
		}
	}
	RegisterRuntimeMetrics(nil) // must not panic
}

// unescapeLabelValue reverses EscapeLabelValue: the parsing side of the
// round trip, as a consumer of the text format would read a label.
func unescapeLabelValue(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			switch v[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case '"':
				b.WriteByte('"')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(v[i])
	}
	return b.String()
}
