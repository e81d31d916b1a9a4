// Package ema tracks per-page access frequency the way MEMTIS and ArtMem
// do (paper §4.3): each sampled access increments the page's count,
// pages are grouped into exponential bins with base 2 to compactly
// represent the access distribution, and a cooling operation periodically
// halves all counts so stale history decays — together an exponential
// moving average of access frequency.
//
// The histogram also provides the hotness-threshold machinery: the
// MEMTIS-style capacity-derived threshold (the smallest access count such
// that all pages at or above it fit in the fast tier) that ArtMem uses as
// its starting point and resets to after each cooling, before the RL
// agent refines it.
package ema

import (
	"math/bits"

	"artmem/internal/memsim"
)

// NumBins is the number of exponential bins. Bin 0 holds never-sampled
// pages; bin i (i ≥ 1) holds pages with count in [2^(i-1), 2^i). 32 bins
// cover counts beyond any realistic sampling volume.
const NumBins = 32

// BinOf returns the bin index for an access count.
func BinOf(count uint32) int {
	// Bin b ≥ 1 holds counts in [2^(b-1), 2^b): the count's bit length.
	return min(bits.Len32(count), NumBins-1)
}

// BinLower returns the smallest access count that falls in bin b
// (0 for bin 0).
func BinLower(b int) uint32 {
	if b <= 0 {
		return 0
	}
	return 1 << (b - 1)
}

// DefaultCoolingPeriod is the paper's cooling trigger: every two million
// samples, all bin counts and per-page records are halved (§4.3).
const DefaultCoolingPeriod = 2_000_000

// Histogram tracks per-page EMA access counts and the bin distribution.
// It is not safe for concurrent use.
type Histogram struct {
	counts []uint32
	bins   [NumBins]int

	coolingPeriod    uint64
	samplesSinceCool uint64
	coolings         uint64
	totalSamples     uint64
}

// New returns a Histogram over numPages pages. coolingPeriod is the
// number of recorded samples between cooling operations; 0 uses
// DefaultCoolingPeriod.
func New(numPages int, coolingPeriod uint64) *Histogram {
	if coolingPeriod == 0 {
		coolingPeriod = DefaultCoolingPeriod
	}
	h := &Histogram{
		counts:        make([]uint32, numPages),
		coolingPeriod: coolingPeriod,
	}
	h.bins[0] = numPages
	return h
}

// Record notes one sampled access to page p, updating its bin
// assignment, and performs a cooling pass when the cooling period
// elapses. It reports whether this call triggered a cooling.
func (h *Histogram) Record(p memsim.PageID) (cooled bool) {
	c := h.counts[p]
	oldBin := BinOf(c)
	c++
	h.counts[p] = c
	if nb := BinOf(c); nb != oldBin {
		h.bins[oldBin]--
		h.bins[nb]++
	}
	h.totalSamples++
	h.samplesSinceCool++
	if h.samplesSinceCool >= h.coolingPeriod {
		h.Cool()
		return true
	}
	return false
}

// Count returns page p's current EMA access count.
func (h *Histogram) Count(p memsim.PageID) uint32 { return h.counts[p] }

// Cool halves every page's count and rebuilds the bin distribution —
// the paper's cooling operation that gradually discounts stale accesses.
func (h *Histogram) Cool() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	for p, c := range h.counts {
		c >>= 1
		h.counts[p] = c
		h.bins[BinOf(c)]++
	}
	h.coolings++
	h.samplesSinceCool = 0
}

// CapacityThreshold returns the MEMTIS-style hotness threshold for a
// fast tier of capPages pages: the smallest bin lower-bound count T such
// that the pages with count ≥ T fit within capPages. If even the hottest
// bin alone overflows the capacity, the hottest occupied bin's lower
// bound is returned.
func (h *Histogram) CapacityThreshold(capPages int) uint32 {
	hottest := 0 // hottest occupied bin ≥ 1
	for b := NumBins - 1; b >= 1; b-- {
		if h.bins[b] > 0 {
			hottest = b
			break
		}
	}
	if hottest == 0 {
		// No page has been sampled yet.
		return 1
	}
	cum := 0
	// Walk from the hottest bin downward; stop before overflowing.
	lastFit := NumBins // sentinel: nothing fits
	for b := NumBins - 1; b >= 1; b-- {
		cum += h.bins[b]
		if cum > capPages {
			break
		}
		lastFit = b
	}
	if lastFit > hottest {
		// Even the hottest occupied bin overflows the capacity. Real
		// MEMTIS still classifies that bin as hot and migrates it — the
		// thrashing behaviour the paper observes on pattern S4 — so the
		// threshold admits it rather than admitting nothing.
		return BinLower(hottest)
	}
	return BinLower(lastFit)
}
