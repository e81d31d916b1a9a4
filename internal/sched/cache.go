package sched

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"artmem/internal/atomicfile"
	"artmem/internal/harness"
)

// Cache memoizes harness results by canonical cell key. The in-memory
// layer deduplicates within a process (including concurrent requests
// for the same key — the second caller blocks until the first finishes
// rather than recomputing); the optional disk layer persists results
// across invocations.
//
// Results handed out by the cache are shared: callers must treat a
// harness.Result obtained here — including its series slices — as
// immutable.
type Cache struct {
	dir string // "" disables the disk layer

	mu  sync.Mutex
	mem map[string]*cacheEntry

	memHits  atomic.Uint64
	diskHits atomic.Uint64
	misses   atomic.Uint64

	metrics *Metrics
}

// cacheEntry is one in-flight or completed computation. done is closed
// once res is valid.
type cacheEntry struct {
	done chan struct{}
	res  harness.Result
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	// MemHits counts requests served from memory, including requests
	// that waited on an identical in-flight computation.
	MemHits uint64
	// DiskHits counts requests served by reading a persisted result.
	DiskHits uint64
	// Misses counts requests that had to run the cell.
	Misses uint64
}

// Hits returns the total hits across both layers.
func (s CacheStats) Hits() uint64 { return s.MemHits + s.DiskHits }

// HitRate returns hits/(hits+misses) in [0,1], or 0 before any request.
func (s CacheStats) HitRate() float64 {
	total := s.Hits() + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// NewCache returns a cache. dir, when non-empty, enables the disk
// layer rooted there (created on first store); callers key the
// directory by a source stamp of the simulator packages — see
// SourceStamp — so code changes can never replay stale results. An
// empty dir keeps the cache memory-only.
func NewCache(dir string) *Cache {
	return &Cache{dir: dir, mem: make(map[string]*cacheEntry), metrics: &Metrics{}}
}

// SetMetrics attaches telemetry counters (nil detaches). Called by
// sched.New so a scheduler's cache shares its metrics bundle.
func (c *Cache) SetMetrics(m *Metrics) {
	if m == nil {
		m = &Metrics{}
	}
	c.metrics = m
}

// Stats returns a snapshot of the hit/miss counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		MemHits:  c.memHits.Load(),
		DiskHits: c.diskHits.Load(),
		Misses:   c.misses.Load(),
	}
}

// GetOrRun returns the memoized result for key, computing it with run
// on a miss. hit reports whether the result came from either cache
// layer (or from coalescing onto an identical in-flight computation).
func (c *Cache) GetOrRun(key string, run func() harness.Result) (res harness.Result, hit bool) {
	h := hashKey(key)
	c.mu.Lock()
	if e, ok := c.mem[h]; ok {
		c.mu.Unlock()
		<-e.done
		c.memHits.Add(1)
		c.metrics.MemHits.Inc()
		return e.res, true
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.mem[h] = e
	c.mu.Unlock()

	// This goroutine owns the computation; release waiters even if run
	// panics (the panic still propagates and ends the process, but
	// waiters must not deadlock first).
	defer close(e.done)

	if r, ok := c.loadDisk(h, key); ok {
		e.res = r
		c.diskHits.Add(1)
		c.metrics.DiskHits.Inc()
		return e.res, true
	}
	c.misses.Add(1)
	c.metrics.Misses.Inc()
	e.res = run()
	c.storeDisk(h, key, e.res)
	return e.res, false
}

// ---- disk layer ------------------------------------------------------------

// diskEntry is the persisted form of one cached result. The full
// canonical key is stored alongside the result and verified on load,
// so a (vanishingly unlikely) digest collision or a hand-edited file
// degrades to a recompute, never a wrong result.
type diskEntry struct {
	Key    string     `json:"key"`
	Result diskResult `json:"result"`
}

// diskResult mirrors harness.Result with the error field flattened to
// a string: error values do not round-trip through encoding/json.
type diskResult struct {
	harness.Result
	InvariantErr string `json:"invariant_err,omitempty"`
}

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// loadDisk reads a persisted result, returning ok=false on any miss,
// decode error, or key mismatch.
func (c *Cache) loadDisk(hash, key string) (harness.Result, bool) {
	if c.dir == "" {
		return harness.Result{}, false
	}
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return harness.Result{}, false
	}
	var e diskEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		return harness.Result{}, false
	}
	res := e.Result.Result
	if e.Result.InvariantErr != "" {
		res.InvariantErr = errors.New(e.Result.InvariantErr)
	}
	return res, true
}

// storeDisk persists a result atomically (atomicfile) so a crashed run
// can never leave a truncated entry behind. Failures are
// silent: the disk layer is an accelerator, not a store of record.
func (c *Cache) storeDisk(hash, key string, res harness.Result) {
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return
	}
	dr := diskResult{Result: res}
	if res.InvariantErr != nil {
		dr.InvariantErr = res.InvariantErr.Error()
		dr.Result.InvariantErr = nil
	}
	data, err := json.Marshal(diskEntry{Key: key, Result: dr})
	if err != nil {
		return
	}
	_ = atomicfile.WriteFile(c.path(hash), data, 0o644)
}
