package main

import "sync"

// The benchmark host is shared, and other tenants' load changes how fast
// the same instructions run. On a shared 2-vCPU Intel Xeon host, over
// 150 s of back-to-back replay cells, the CPU time of one deterministic
// cell moved by 40% (12M to 17.6M accesses per CPU second). Process CPU
// time already leaves out the time the host deschedules the process, but
// it cannot leave out a slower core.
//
// So each timed loop also runs a short slice of a fixed reference kernel
// on its own thread every refEvery batches. The kernel shares no code
// with the program and touches no memory, so neither a code change nor
// the program's cache footprint changes its speed. The slices' mean
// thread-CPU time over a fixed nominal gives the host's slowdown over the
// phase. The end-to-end times are divided by it, so they are read at
// reference speed. Over those cells, the spread of 8-cell medians fell
// from 0.14 raw to 0.034 normalized (slope of log cell time on log slice
// time 1.11, correlation 0.73).

const (
	// refIters is one slice's work: about 45 µs at reference speed.
	refIters = 20_000
	// refEvery is how many batches a loop sends or replays per slice
	// (about 1% of its CPU time).
	refEvery = 4
	// refNominalNs is the slice time that defines reference speed: the
	// median slice time measured on the benchmark host (Intel Xeon, 2
	// vCPUs). It only scales the reported values, and comparisons
	// between commits do not depend on it.
	refNominalNs = 45_000
)

// refSink keeps the kernel's result observable so the compiler cannot
// drop the work.
var refSink uint64

// refMeter accumulates reference slices across the goroutines of one
// phase.
type refMeter struct {
	mu    sync.Mutex
	ns, n int64
}

// slice runs one slice of the reference kernel, an LCG with an
// xorshift, and records its thread CPU time. The calling goroutine must
// be locked to its thread.
func (m *refMeter) slice() {
	t0 := threadCPUNs()
	x := uint64(t0) | 1
	for i := 0; i < refIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	d := threadCPUNs() - t0
	m.mu.Lock()
	refSink += x
	m.ns += d
	m.n++
	m.mu.Unlock()
}

// take returns the CPU time the slices took since the last take and the
// host's slowdown over them (mean slice time over refNominalNs; 1 when
// no slice ran), and resets.
func (m *refMeter) take() (refCPUS, slow float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	refCPUS, slow = float64(m.ns)/1e9, 1
	if m.n > 0 {
		slow = float64(m.ns) / float64(m.n) / refNominalNs
	}
	m.ns, m.n = 0, 0
	return refCPUS, slow
}
