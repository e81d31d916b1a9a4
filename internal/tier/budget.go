package tier

// Budgets meters migrations per tier boundary. Boundary b is the edge
// between tier b and tier b+1; every promotion or demotion crossing
// that edge consumes one unit. A per-boundary limit of 0 means
// unmetered. Reset refills all boundaries at the start of a migration
// period.
//
// Budgets is plain bookkeeping (no locking); the consumer serializes.
type Budgets struct {
	limit []int
	left  []int
}

// NewBudgets returns budgets for nBoundaries boundaries, each with the
// given per-period limit (0 = unmetered), already filled.
func NewBudgets(nBoundaries, perBoundary int) *Budgets {
	b := &Budgets{
		limit: make([]int, nBoundaries),
		left:  make([]int, nBoundaries),
	}
	for i := range b.limit {
		b.limit[i] = perBoundary
	}
	b.Reset()
	return b
}

// Boundaries returns the number of boundaries tracked.
func (b *Budgets) Boundaries() int { return len(b.limit) }

// Reset refills every boundary to its limit.
func (b *Budgets) Reset() {
	copy(b.left, b.limit)
}

// Take consumes one unit from boundary i, reporting false when the
// boundary is exhausted. Unmetered boundaries always succeed.
func (b *Budgets) Take(i int) bool {
	if b.limit[i] == 0 {
		return true
	}
	if b.left[i] <= 0 {
		return false
	}
	b.left[i]--
	return true
}
