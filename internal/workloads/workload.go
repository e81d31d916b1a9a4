// Package workloads defines the Workload abstraction — a generator of
// memory-access traces — and implements every workload the paper
// evaluates: the four synthetic MASIM patterns S1–S4 (Figure 1), the
// eight applications of Table 3 (YCSB, CC, SSSP, PR, XSBench, DLRM,
// Btree, Liblinear), and the mixed concurrent combinations of §6.3.10.
//
// A Workload produces batches of Access records. The harness replays
// them into a memsim.Machine under a tiering policy; because the trace is
// generated open-loop (independent of policy decisions), every policy
// sees the identical access sequence, and differences in simulated
// execution time are attributable purely to page placement.
package workloads

import "sync"

// Access is one memory reference.
type Access struct {
	Addr  uint64
	Write bool
}

// Workload generates an access trace.
type Workload interface {
	// Name identifies the workload.
	Name() string
	// FootprintBytes is the size of the virtual address space the
	// workload touches; the harness sizes the machine from it.
	FootprintBytes() int64
	// Next returns the next batch of accesses. The returned slice is
	// only valid until the following Next call. ok is false when the
	// trace is exhausted (the batch is empty then).
	Next() (batch []Access, ok bool)
	// Close releases any resources (e.g. a producer goroutine). The
	// workload must not be used afterwards. Close is idempotent.
	Close()
}

// BatchSize is the number of accesses per batch produced by the helpers
// in this package.
const BatchSize = 16384

// ---- producer-goroutine adapter ----------------------------------------

// abortTrace is the sentinel panic used to unwind a producer's run
// function when the consumer closes the workload early.
type abortTrace struct{}

// traceWorkload adapts a run-to-completion function that emits touches
// (the graph/kvstore/btreeidx substrates) into an incrementally consumed
// Workload, using a producer goroutine and a two-buffer exchange.
type traceWorkload struct {
	name      string
	footprint int64
	batches   chan []Access
	free      chan []Access
	stop      chan struct{}
	prev      []Access // batch handed out by the last Next, to recycle
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewTrace returns a Workload whose accesses are produced by run, which
// must call emit for every access and return when the trace is complete.
// run executes on its own goroutine; if the workload is closed early,
// run is unwound at its next emit call.
func NewTrace(name string, footprint int64, run func(emit func(addr uint64, write bool))) Workload {
	w := &traceWorkload{
		name:      name,
		footprint: footprint,
		batches:   make(chan []Access, 1),
		free:      make(chan []Access, 2),
		stop:      make(chan struct{}),
	}
	w.free <- make([]Access, 0, BatchSize)
	w.free <- make([]Access, 0, BatchSize)
	w.wg.Add(1)
	go w.produce(run)
	return w
}

func (w *traceWorkload) produce(run func(emit func(addr uint64, write bool))) {
	defer w.wg.Done()
	defer close(w.batches)
	defer func() {
		// Swallow only our own abort sentinel; real panics propagate.
		if r := recover(); r != nil {
			if _, ok := r.(abortTrace); !ok {
				panic(r)
			}
		}
	}()
	var buf []Access
	select {
	case buf = <-w.free:
	case <-w.stop:
		return
	}
	buf = buf[:0]
	emit := func(addr uint64, write bool) {
		buf = append(buf, Access{Addr: addr, Write: write})
		if len(buf) == cap(buf) {
			select {
			case w.batches <- buf:
			case <-w.stop:
				panic(abortTrace{})
			}
			select {
			case buf = <-w.free:
				buf = buf[:0]
			case <-w.stop:
				panic(abortTrace{})
			}
		}
	}
	run(emit)
	if len(buf) > 0 {
		select {
		case w.batches <- buf:
		case <-w.stop:
		}
	}
}

func (w *traceWorkload) Name() string          { return w.name }
func (w *traceWorkload) FootprintBytes() int64 { return w.footprint }

func (w *traceWorkload) Next() ([]Access, bool) {
	if w.prev != nil {
		// Recycle the previously handed-out buffer.
		select {
		case w.free <- w.prev[:0:cap(w.prev)]:
		default:
		}
		w.prev = nil
	}
	b, ok := <-w.batches
	if !ok {
		return nil, false
	}
	w.prev = b
	return b, true
}

func (w *traceWorkload) Close() {
	w.closeOnce.Do(func() {
		close(w.stop)
		// Drain so the producer is never blocked on the batches channel.
		for range w.batches {
		}
		w.wg.Wait()
	})
}

// ---- generator adapter ---------------------------------------------------

// genWorkload adapts a pull-style generator function (fill one access,
// report done) into a Workload without goroutines. Used by the pure
// synthetic generators.
type genWorkload struct {
	name      string
	footprint int64
	buf       []Access
	gen       func() (Access, bool)
	done      bool
}

// NewGenerator returns a Workload producing accesses by repeatedly
// calling gen until it reports done.
func NewGenerator(name string, footprint int64, gen func() (Access, bool)) Workload {
	return &genWorkload{
		name:      name,
		footprint: footprint,
		buf:       make([]Access, 0, BatchSize),
		gen:       gen,
	}
}

func (g *genWorkload) Name() string          { return g.name }
func (g *genWorkload) FootprintBytes() int64 { return g.footprint }
func (g *genWorkload) Close()                { g.done = true }

func (g *genWorkload) Next() ([]Access, bool) {
	if g.done {
		return nil, false
	}
	g.buf = g.buf[:0]
	for len(g.buf) < cap(g.buf) {
		a, ok := g.gen()
		if !ok {
			g.done = true
			break
		}
		g.buf = append(g.buf, a)
	}
	if len(g.buf) == 0 {
		return nil, false
	}
	return g.buf, true
}

// ---- wrappers -------------------------------------------------------------

// Limit caps a workload at most max accesses. A non-positive max leaves
// the workload unlimited.
func Limit(w Workload, max int64) Workload {
	if max <= 0 {
		return w
	}
	return &limitWorkload{Workload: w, remaining: max}
}

type limitWorkload struct {
	Workload
	remaining int64
}

func (l *limitWorkload) Next() ([]Access, bool) {
	if l.remaining <= 0 {
		return nil, false
	}
	b, ok := l.Workload.Next()
	if !ok {
		return nil, false
	}
	if int64(len(b)) > l.remaining {
		b = b[:l.remaining]
	}
	l.remaining -= int64(len(b))
	return b, true
}

// Mixed interleaves several workloads in fixed-size slices, modelling
// concurrent execution (§6.3.10: "We simulate a scenario with dynamic
// and complex access patterns by running multiple workloads
// concurrently"). Each child is placed in its own region of the combined
// address space. The mix ends when every child has finished.
func Mixed(name string, children ...Workload) Workload {
	m := &mixedWorkload{name: name, children: children}
	var off uint64
	for _, c := range children {
		m.offsets = append(m.offsets, off)
		off += uint64(c.FootprintBytes())
	}
	m.footprint = int64(off)
	m.live = len(children)
	m.done = make([]bool, len(children))
	return m
}

type mixedWorkload struct {
	name      string
	children  []Workload
	offsets   []uint64
	footprint int64
	turn      int
	live      int
	done      []bool
}

func (m *mixedWorkload) Name() string          { return m.name }
func (m *mixedWorkload) FootprintBytes() int64 { return m.footprint }

func (m *mixedWorkload) Next() ([]Access, bool) {
	for m.live > 0 {
		i := m.turn
		m.turn = (m.turn + 1) % len(m.children)
		if m.done[i] {
			continue
		}
		b, ok := m.children[i].Next()
		if !ok {
			m.done[i] = true
			m.live--
			continue
		}
		off := m.offsets[i]
		if off != 0 {
			for j := range b {
				b[j].Addr += off
			}
		}
		return b, true
	}
	return nil, false
}

func (m *mixedWorkload) Close() {
	for _, c := range m.children {
		c.Close()
	}
}

// WithInitSweep prefixes a workload with one sequential write sweep over
// its whole footprint at the given stride (0 uses 4096). Real programs
// allocate memory by initializing it — reading input files into arrays,
// zeroing buffers — so first-touch placement follows *address* order, not
// the later access pattern's popularity order. Without this phase, the
// simulator's first-touch allocator would hand the fast tier exactly the
// hot pages and leave nothing for tiering policies to do.
func WithInitSweep(w Workload, stride int64) Workload {
	if stride <= 0 {
		stride = 4096
	}
	return &sweepWorkload{Workload: w, stride: stride}
}

type sweepWorkload struct {
	Workload
	stride int64
	pos    int64
	buf    []Access
}

func (s *sweepWorkload) Next() ([]Access, bool) {
	if s.pos < s.Workload.FootprintBytes() {
		if s.buf == nil {
			s.buf = make([]Access, 0, BatchSize)
		}
		s.buf = s.buf[:0]
		for len(s.buf) < cap(s.buf) && s.pos < s.Workload.FootprintBytes() {
			s.buf = append(s.buf, Access{Addr: uint64(s.pos), Write: true})
			s.pos += s.stride
		}
		return s.buf, true
	}
	return s.Workload.Next()
}
