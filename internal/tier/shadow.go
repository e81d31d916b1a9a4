package tier

// ShadowTable tracks the shadow copies created by non-exclusive
// (Nomad-style) promotion. When a page is promoted, its old frame in
// the source tier is not freed but kept as a *shadow*: a clean copy
// that lets a later demotion back to that tier complete as a free
// discard (flip the resident pointer, no transfer) instead of a full
// re-migration. A write to the page invalidates the shadow (the copy
// would be stale), and shadow frames are reclaimable on demand when
// their tier runs out of room.
//
// The table stores at most one shadow per page and a per-tier LIFO
// reclaim stack, so eviction under capacity pressure is deterministic.
// All methods are O(1). The zero table is not usable; use
// NewShadowTable.
type ShadowTable struct {
	// at[p] is the shadow tier + 1 for page p, 0 = no shadow.
	at []uint8
	// byTier[t] is the reclaim stack of pages whose shadow lives in
	// tier t; pos[p] is p's index in its stack.
	byTier [][]uint32
	pos    []uint32
}

// NewShadowTable returns an empty table for numPages pages across
// numTiers tiers.
func NewShadowTable(numPages, numTiers int) *ShadowTable {
	return &ShadowTable{
		at:     make([]uint8, numPages),
		byTier: make([][]uint32, numTiers),
		pos:    make([]uint32, numPages),
	}
}

// At returns the tier holding page p's shadow copy, if any.
func (s *ShadowTable) At(p uint32) (int, bool) {
	t := s.at[p]
	if t == 0 {
		return 0, false
	}
	return int(t - 1), true
}

// Add records a shadow copy of page p in tier t. The page must not
// already have a shadow (callers invalidate first; see Machine).
func (s *ShadowTable) Add(p uint32, t int) {
	if s.at[p] != 0 {
		panic("tier: Add over existing shadow")
	}
	s.at[p] = uint8(t) + 1
	s.pos[p] = uint32(len(s.byTier[t]))
	s.byTier[t] = append(s.byTier[t], p)
}

// Remove drops page p's shadow entry. It is a no-op if p has none.
// The caller owns the freed frame's accounting.
func (s *ShadowTable) Remove(p uint32) {
	t := s.at[p]
	if t == 0 {
		return
	}
	s.at[p] = 0
	stack := s.byTier[t-1]
	i := s.pos[p]
	last := stack[len(stack)-1]
	stack[i] = last
	s.pos[last] = i
	s.byTier[t-1] = stack[:len(stack)-1]
}

// PopReclaim evicts and returns the most recently added shadow in tier
// t, for reclaiming its frame under capacity pressure. LIFO order keeps
// eviction deterministic and favors keeping long-lived shadows (the
// stable pages non-exclusive migration exists to protect).
func (s *ShadowTable) PopReclaim(t int) (uint32, bool) {
	stack := s.byTier[t]
	if len(stack) == 0 {
		return 0, false
	}
	p := stack[len(stack)-1]
	s.byTier[t] = stack[:len(stack)-1]
	s.at[p] = 0
	return p, true
}

// Count returns the number of shadow frames currently held in tier t.
func (s *ShadowTable) Count(t int) int { return len(s.byTier[t]) }
