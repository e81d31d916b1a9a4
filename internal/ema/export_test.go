package ema

// BinPages returns the number of pages currently in bin b.
func (h *Histogram) BinPages(b int) int { return h.bins[b] }

// Coolings returns how many cooling passes have run.
func (h *Histogram) Coolings() uint64 { return h.coolings }

// TotalSamples returns the number of recorded samples.
func (h *Histogram) TotalSamples() uint64 { return h.totalSamples }

// PagesAtOrAbove returns how many pages have count ≥ threshold. For
// thresholds on bin boundaries this is a bin-sum; otherwise the partial
// bin is counted exactly.
func (h *Histogram) PagesAtOrAbove(threshold uint32) int {
	if threshold == 0 {
		return len(h.counts)
	}
	b := BinOf(threshold)
	n := 0
	for i := b + 1; i < NumBins; i++ {
		n += h.bins[i]
	}
	if BinLower(b) == threshold {
		// Exactly on the bin's lower bound: the whole bin qualifies.
		return n + h.bins[b]
	}
	// Partial bin: count exactly.
	for _, c := range h.counts {
		if c >= threshold && BinOf(c) == b {
			n++
		}
	}
	return n
}
