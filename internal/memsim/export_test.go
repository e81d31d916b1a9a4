package memsim

// flush invalidates the whole cache.
func (c *cacheModel) flush() { clear(c.tags) }

// FlushCache invalidates the machine's CPU cache model.
func (m *Machine) FlushCache() { m.cache.flush() }

// ResidentPages returns the pages whose authoritative copy lives in
// tier t — UsedPages minus shadow frames.
func (m *Machine) ResidentPages(t TierID) int {
	return m.used[t] - m.ShadowPages(t)
}

// ShadowOf reports the tier holding page p's shadow copy, if any.
func (m *Machine) ShadowOf(p PageID) (TierID, bool) {
	if m.sh == nil {
		return 0, false
	}
	st, ok := m.sh.At(uint32(p))
	return TierID(st), ok
}

// WriteCostNs returns the model cost of a cache-missing write served by
// tier t.
func (m *Machine) WriteCostNs(t TierID) float64 { return m.writeCostNs[t] }

// AdvanceIdle advances the virtual clock by ns without any memory
// activity.
func (m *Machine) AdvanceIdle(ns float64) {
	if ns > 0 {
		m.advance(ns)
	}
}

// Accessed returns the page's accessed bit without clearing it.
func (m *Machine) Accessed(p PageID) bool { return m.accessed[p] }

// Dirty returns whether the page has been written since allocation.
func (m *Machine) Dirty(p PageID) bool { return m.dirty[p] }

// NumTenants returns the number of tenants, or 1 when multi-tenant
// accounting is disabled.
func (m *Machine) NumTenants() int {
	if m.ts == nil {
		return 1
	}
	return len(m.ts.used)
}
