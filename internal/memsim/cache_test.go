package memsim

import (
	"math/rand/v2"
	"testing"
)

// wideCache is the cache model with full 64-bit line tags, kept as the
// reference the 16-bit tags must agree with.
type wideCache struct {
	tags []uint64
	mask uint64
}

func newWideCache(slots int) *wideCache {
	c := &wideCache{tags: make([]uint64, slots), mask: uint64(slots - 1)}
	c.flush()
	return c
}

func (c *wideCache) lookup(line uint64) bool {
	slot := (line * 0x9e3779b97f4a7c15) & c.mask
	if c.tags[slot] == line {
		return true
	}
	c.tags[slot] = line
	return false
}

func (c *wideCache) evictLines(startLine uint64, n int64) {
	for i := int64(0); i < n; i++ {
		line := startLine + uint64(i)
		slot := (line * 0x9e3779b97f4a7c15) & c.mask
		if c.tags[slot] == line {
			c.tags[slot] = ^uint64(0)
		}
	}
}

func (c *wideCache) flush() {
	for i := range c.tags {
		c.tags[i] = ^uint64(0)
	}
}

// The 16-bit tags decide every lookup exactly as full line tags do, at
// every power-of-two size up to the default 2^18 lines, for lines up to
// the footprint bound, across evictions and flushes.
func TestCacheTagsMatchWideTags(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for s := uint(0); s <= 18; s++ {
		slots := 1 << s
		var c cacheModel
		c.init(slots)
		if len(c.tags) != slots || c.shift != s {
			t.Fatalf("init(%d): %d slots, shift %d", slots, len(c.tags), c.shift)
		}
		ref := newWideCache(slots)
		limit := uint64(maxCacheTag) << s // lines the tags can name
		// A small working set makes hits; lines that share a slot's low
		// bits but differ above them (and the extremes of the range)
		// make the conflicts a short tag could confuse.
		hot := make([]uint64, 64)
		for i := range hot {
			hot[i] = rng.Uint64N(limit)
		}
		hits := 0
		for op := 0; op < 20000; op++ {
			var line uint64
			switch r := rng.IntN(100); {
			case r < 50:
				line = hot[rng.IntN(len(hot))]
			case r < 70:
				line = hot[rng.IntN(len(hot))]&uint64(slots-1) | rng.Uint64N(maxCacheTag)<<s
			case r < 72:
				line = limit - 1 - rng.Uint64N(2)
			case r < 74:
				n := int64(rng.IntN(64) + 1)
				start := rng.Uint64N(limit - uint64(n) + 1)
				if rng.IntN(2) == 0 {
					start = hot[rng.IntN(len(hot))]
					start -= min(start, uint64(rng.IntN(int(n))))
					start = min(start, limit-uint64(n))
				}
				c.evictLines(start, n)
				ref.evictLines(start, n)
				continue
			case r < 75 && op%97 == 0:
				c.flush()
				ref.flush()
				continue
			default:
				line = rng.Uint64N(limit)
			}
			got, want := c.lookup(line), ref.lookup(line)
			if got != want {
				t.Fatalf("2^%d slots, op %d, line %#x: hit=%v, 64-bit tags say %v", s, op, line, got, want)
			}
			if got {
				hits++
			}
		}
		if hits == 0 {
			t.Errorf("2^%d slots: no hits, the stream exercised nothing", s)
		}
	}
}

// Validate admits a footprint up to maxCacheTag lines per slot and
// rejects one line more.
func TestConfigValidateCacheTagBound(t *testing.T) {
	for _, tc := range []struct {
		cacheLines int
		lines      int64
		ok         bool
	}{
		{1, maxCacheTag, true},
		{1, maxCacheTag + 1, false},
		{3, 4 * maxCacheTag, true}, // 3 lines round up to 4 slots
		{3, 4*maxCacheTag + 1, false},
		{0, 4*maxCacheTag + 1, true}, // no cache model, no bound
	} {
		cfg := DefaultConfig(tc.lines*64, tc.lines*64/2, 64)
		cfg.CacheLines = tc.cacheLines
		if err := cfg.Validate(); (err == nil) != tc.ok {
			t.Errorf("%d cache lines, %d-line footprint: err = %v, want ok=%v", tc.cacheLines, tc.lines, err, tc.ok)
		}
	}
}

// An address beyond the footprint hits the line of its in-range alias,
// the same alias PageOf picks for its page.
func TestStrayAddressHitsAliasLine(t *testing.T) {
	m := NewMachine(testConfig(1 << 10))
	span := uint64(m.NumPages()) * uint64(m.PageSize())
	const addr = 5*64*1024 + 3*64 + 7
	for _, stray := range []uint64{addr + span, addr + 1000*span, addr + (1<<40)*span} {
		if m.PageOf(stray) != m.PageOf(addr) {
			t.Fatalf("PageOf(%#x) = %d, want %d", stray, m.PageOf(stray), m.PageOf(addr))
		}
		m.FlushCache()
		m.Access(addr, false)
		hits := m.Counters().CacheHits
		m.Access(stray, false)
		if m.Counters().CacheHits != hits+1 {
			t.Errorf("access to %#x missed after its alias %#x", stray, uint64(addr))
		}
		m.Access(addr, false) // and the other way round
		if m.Counters().CacheHits != hits+2 {
			t.Errorf("access to %#x missed after its alias %#x", uint64(addr), stray)
		}
	}
}

// BenchmarkCacheLookup times the tag lookup in the shape of a replay
// cell: the default 2^18-line model over random lines of a 35,328-page
// footprint of 4 KiB pages (XSBench at Div 64).
func BenchmarkCacheLookup(b *testing.B) {
	var c cacheModel
	c.init(1 << 18)
	const footLines = 35328 * 4096 / 64
	rng := rand.New(rand.NewPCG(1, 2))
	lines := make([]uint64, 1<<16)
	for i := range lines {
		lines[i] = rng.Uint64N(footLines)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.lookup(lines[i&(len(lines)-1)])
	}
}
