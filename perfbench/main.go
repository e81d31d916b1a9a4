// Command perfbench is the repository's end-to-end benchmark. One
// process generates its own closed-loop load for one workload, measures
// it for a fixed wall-clock budget, checks that the outputs are correct,
// and prints one JSON result object as the last line of stdout:
//
//	go run . --workload replay --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 a separate, instrumented run carries the per-layer ones.
// Every layer is timed from outside, around calls into the packages'
// public functions, and through counters the program already exposes;
// nothing inside the program is instrumented for the benchmark. See
// README.md for the workloads, the metrics, and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// workload is one benchmark workload: run executes one cell (a full
// set-up, warm-up, timed phase and correctness check) and returns its
// outcome.
type workload struct {
	name string
	run  func(seed uint64, traced bool) cell
}

var allWorkloads = []workload{
	{"replay", runReplay},
	{"replay-chain", runReplayChain},
	{"serve", runServe},
	{"serve-tenants", runServeTenants},
}

// cell is the outcome of one set-up + timed phase. A run repeats cells
// until its wall-clock budget is spent and reports medians across them.
type cell struct {
	setup, timed span      // set-up (build, attach, warm-up, GC) and the timed phase
	accesses     int64     // accesses applied in the timed phase
	latNs        []float64 // batch latencies: at reference speed on serve, simulated on replay
	fastRatio    float64
	simExecMs    float64
	tenantMinFR  float64
	attempted    int64
	failed       int64
	errs         []string
	fingerprint  string             // exact simulated outcome; must repeat across cells
	layers       map[string]float64 // per-layer metrics (traced cells only)
	layerSamples map[string]int     // sample counts behind per-layer means
}

// accessesPerS is the timed phase's throughput per second of process
// CPU time at reference host speed (speed.go); cpuAccessesPerS and
// wallAccessesPerS per plain CPU and wall second.
func (c cell) accessesPerS() float64     { return float64(c.accesses) / c.timed.refS() }
func (c cell) cpuAccessesPerS() float64  { return float64(c.accesses) / c.timed.cpuS }
func (c cell) wallAccessesPerS() float64 { return float64(c.accesses) / c.timed.wallS }

// latMs is the q-quantile of the cell's batch latencies in ms.
func (c cell) latMs(q float64) float64 {
	if !sort.Float64sAreSorted(c.latNs) {
		sort.Float64s(c.latNs)
	}
	return quantile(c.latNs, q) / 1e6
}

// span is an interval measured in wall time and in the CPU time of the
// whole process (every goroutine, the runtime's included), with the
// host's slowdown against reference speed over it (speed.go).
type span struct{ wallS, cpuS, slow float64 }

// refS is the span's CPU time at reference host speed.
func (s span) refS() float64 { return s.cpuS / s.slow }

// without removes the reference slices that ran inside the span
// (refCPUS of CPU time) and records their slowdown.
func (s span) without(refCPUS, slow float64) span {
	return span{s.wallS - refCPUS, s.cpuS - refCPUS, slow}
}

// stamp is a point on both clocks.
type stamp struct {
	wall time.Time
	cpuS float64
}

func now() stamp {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return stamp{time.Now(), float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9}
}

func (a stamp) to(b stamp) span { return span{b.wall.Sub(a.wall).Seconds(), b.cpuS - a.cpuS, 1} }

// Metric units, shared by the end-to-end and per-layer results. The
// names and units match BENCHMARK.json.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"accesses_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"fast_ratio", "ratio"},
	{"sim_exec_ms", "ms"},
	{"tenant_fast_ratio_min", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"workloads.next_ns_per_access", "ns"},
	{"workloads.next_frac", "ratio"},
	{"memsim.access_ns", "ns"},
	{"memsim.access_frac", "ratio"},
	{"memsim.cache_hit_frac", "ratio"},
	{"memsim.migrations", "count"},
	{"memsim.promotions", "count"},
	{"memsim.demotions", "count"},
	{"core.ticks", "count"},
	{"core.tick_ms_p50", "ms"},
	{"core.tick_ms_p99", "ms"},
	{"core.tick_frac", "ratio"},
	{"core.control_busy_frac", "ratio"},
	{"core.decisions_per_maccess", "count"},
	{"pebs.samples", "count"},
	{"pebs.drop_frac", "ratio"},
	{"rl.updates", "count"},
	{"rl.explore_frac", "ratio"},
	{"tier.shadow_discards", "count"},
	{"tier.shadow_invalidates", "count"},
	{"tier.shadow_reclaims", "count"},
	{"tier.discard_frac", "ratio"},
	{"serve.spans", "count"},
	{"serve.decode_us", "us"},
	{"serve.queue_us", "us"},
	{"serve.stall_us", "us"},
	{"serve.coalesce_us", "us"},
	{"serve.apply_us", "us"},
	{"serve.ack_us", "us"},
	{"serve.records_per_apply", "count"},
	{"serve.client_send_us", "us"},
	{"tenancy.admission_denials", "count"},
	{"tenancy.rebalances", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.allocs_per_kaccess", "count"},
	{"bench.layer_coverage", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.host_slowdown", "ratio"},
	{"bench.cpu_accesses_per_s", "1/s"},
	{"bench.wall_accesses_per_s", "1/s"},
	{"bench.wall_setup_s", "s"},
	{"bench.cpu_per_wall", "ratio"},
}

// minCells is the fewest cells a run makes, however short its budget:
// enough for a median of the set-up time.
const minCells = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: replay, replay-chain, serve, or serve-tenants")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from an instrumented run")
	flag.Parse()

	var wl *workload
	for i := range allWorkloads {
		if allWorkloads[i].name == *name {
			wl = &allWorkloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad flags (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	traced := *trace == 1

	printHost()
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	var cells []cell
	for i := 0; i < minCells || time.Since(start) < budget; i++ {
		// A traced run alternates plain and instrumented cells so the
		// cost of the instrumentation itself is measured in the same
		// process (bench.trace_overhead_frac).
		c := wl.run(*seed, traced && i%2 == 1)
		cells = append(cells, c)
		fmt.Printf("cell %d: host slowdown %.3f; setup %.3fs (%.3fs cpu, %.3fs wall); %d accesses in %.3fs (%.3fs cpu, %.3fs wall): %.0f/s (%.0f/s cpu, %.0f/s wall); batch p50 %.4f ms, p99 %.4f ms over %d; fast_ratio %.4f\n",
			i, c.timed.slow, c.setup.refS(), c.setup.cpuS, c.setup.wallS, c.accesses, c.timed.refS(), c.timed.cpuS, c.timed.wallS,
			c.accessesPerS(), c.cpuAccessesPerS(), c.wallAccessesPerS(), c.latMs(0.50), c.latMs(0.99), len(c.latNs), c.fastRatio)
	}

	res := summarize(cells, traced)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printHost records the host metadata every result is read against.
func printHost() {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	host, _ := json.Marshal(map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
	})
	fmt.Printf("host %s\n", host)
}

// summarize folds the cells into the run's result: medians across
// cells (of per-cell latency percentiles too) and the correctness
// verdict.
func summarize(cells []cell, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var plain, inst []cell
	for _, c := range cells {
		res.Attempted += c.attempted
		res.Failed += c.failed
		for _, e := range c.errs {
			res.Correct = false
			fmt.Printf("FAIL: %s\n", e)
		}
		if c.fingerprint != cells[0].fingerprint {
			res.Correct = false
			fmt.Printf("FAIL: simulated outcome differs between cells:\n  %s\n  %s\n", cells[0].fingerprint, c.fingerprint)
		}
		if c.layers != nil {
			inst = append(inst, c)
		} else {
			plain = append(plain, c)
		}
	}

	if !traced {
		n := 0
		for _, c := range cells {
			n += len(c.latNs)
		}
		fmt.Printf("batch latency: medians over %d cells of per-cell quantiles, %d batches in all\n", len(cells), n)
		vals := map[string]float64{
			"setup_s":               medianOf(cells, func(c cell) float64 { return c.setup.refS() }),
			"accesses_per_s":        medianOf(cells, cell.accessesPerS),
			"batch_p50_ms":          medianOf(cells, func(c cell) float64 { return c.latMs(0.50) }),
			"batch_p99_ms":          medianOf(cells, func(c cell) float64 { return c.latMs(0.99) }),
			"peak_rss_mb":           peakRSSMB(),
			"fast_ratio":            medianOf(cells, func(c cell) float64 { return c.fastRatio }),
			"sim_exec_ms":           medianOf(cells, func(c cell) float64 { return c.simExecMs }),
			"tenant_fast_ratio_min": medianOf(cells, func(c cell) float64 { return c.tenantMinFR }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res
	}

	for _, m := range perLayer {
		v := medianOf(inst, func(c cell) float64 { return c.layers[m.name] })
		res.Metrics[m.name] = metric{v, m.unit}
	}
	base := medianOf(plain, cell.accessesPerS)
	res.Metrics["bench.trace_overhead_frac"] = metric{1 - medianOf(inst, cell.accessesPerS)/base, "ratio"}
	// The unnormalized view of the whole run, for reading the
	// end-to-end metrics against.
	res.Metrics["bench.host_slowdown"] = metric{medianOf(cells, func(c cell) float64 { return c.timed.slow }), "ratio"}
	res.Metrics["bench.cpu_accesses_per_s"] = metric{medianOf(cells, cell.cpuAccessesPerS), "1/s"}
	res.Metrics["bench.wall_accesses_per_s"] = metric{medianOf(cells, cell.wallAccessesPerS), "1/s"}
	res.Metrics["bench.wall_setup_s"] = metric{medianOf(cells, func(c cell) float64 { return c.setup.wallS }), "s"}
	res.Metrics["bench.cpu_per_wall"] = metric{medianOf(cells, func(c cell) float64 { return c.timed.cpuS / c.timed.wallS }), "ratio"}
	last := inst[len(inst)-1].layerSamples
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("per-layer samples in the last traced cell: %s %d\n", k, last[k])
	}
	return res
}

func medianOf(cells []cell, f func(cell) float64) float64 {
	if len(cells) == 0 {
		return 0
	}
	v := make([]float64, len(cells))
	for i, c := range cells {
		v[i] = f(c)
	}
	sort.Float64s(v)
	return quantile(v, 0.5)
}

// quantile returns the q-quantile of sorted by linear interpolation;
// 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// threadCPUNs reads the calling thread's CPU clock. Callers lock their
// goroutine to its thread for the clock to mean anything.
func threadCPUNs() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock id and pointer cannot fail
	}
	return ts.Nano()
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcSample reads the runtime's cumulative GC CPU time, total CPU time,
// and heap allocation count; differencing two samples attributes them
// to the phase between.
type gcSample struct{ gcCPU, totalCPU, allocs float64 }

var gcMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readGC() gcSample {
	metrics.Read(gcMetrics)
	f := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return gcSample{f(gcMetrics[0]), f(gcMetrics[1]), f(gcMetrics[2])}
}

// runtimeLayers fills the Go runtime's per-layer metrics for a timed
// phase that applied accesses accesses between samples a and b.
func runtimeLayers(l map[string]float64, a, b gcSample, accesses int64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		l["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
	if accesses > 0 {
		l["runtime.allocs_per_kaccess"] = (b.allocs - a.allocs) / (float64(accesses) / 1000)
	}
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
